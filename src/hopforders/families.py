"""The catalog of concrete rank-p and rank-p^2 cases.

Each matrix family fixes the ambient algebra's matrix B; a rank-p^2 order
inside it is identified by a canonical record (i, j, theta) standing for the
DDL embedding Theta = [[T^i, 0], [theta, T^j]].  Ground truth for membership
is always the matrix oracle (order_from_theta); the closed-form predicates
are fast integer/valuation conditions that must agree with the oracle
everywhere, and `oracle_check_family` machine-checks that agreement over a
finite grid.

Canonical records: theta = T^j exactly, or theta a nonzero Laurent
polynomial supported on exponents [v(theta), j).  Records with equal (i, j)
and v(theta - theta') >= j name the same order, so canonical forms are in
bijection with orders of bounded depth.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable

import numpy as np

from . import _batch
from .fields import FieldSpec, FqElem
from .matrix import Mat, Witness
from .orders import NotIntegralError, _term, order_from_theta
from .parse import MAX_DEGREE
from .ratfunc import INF, Poly, RatFunc


class Family(str, Enum):
    """Tags for the cataloged algebras; the tag fixes B via family_matrix."""

    ALPHA_P_N = "alpha_p_n"          # B = 0 (any n): Frobenius kernels' product
    ALPHA_P2 = "alpha_p2"            # B = [[0,1],[0,0]]: second Frobenius kernel
    ZP_X_AP = "zp_x_ap"              # B = [[1,0],[0,0]]: etale x connected product
    ZP_SQUARED = "zp_squared"        # B = I: constant group scheme of order p^2
    MONO_P2 = "mono_p2"              # B = [[0,1],[1,0]]: monogenic t^(p^2) - t
    RANK1_LOCAL = "rank1_local"      # n = 1, b = 0
    RANK1_SEPARABLE = "rank1_separable"  # n = 1, b in K^x; see rank1_orders

    def __str__(self):
        return self.value


RANK_P2_FAMILIES = (Family.ALPHA_P_N, Family.ALPHA_P2, Family.ZP_X_AP,
                    Family.ZP_SQUARED, Family.MONO_P2)

_FAMILY_B = {
    Family.ALPHA_P2: [[0, 1], [0, 0]],
    Family.ZP_X_AP: [[1, 0], [0, 0]],
    Family.ZP_SQUARED: [[1, 0], [0, 1]],
    Family.MONO_P2: [[0, 1], [1, 0]],
}


def family_matrix(family: Family, spec: FieldSpec, n: int | None = None) -> Mat:
    """The 0/1 matrix B of the family's ambient algebra."""
    family = Family(family)
    if family is Family.ALPHA_P_N:
        n = 2 if n is None else n
    elif family is Family.RANK1_LOCAL:
        if n not in (None, 1):
            raise ValueError("rank1_local is a 1x1 family")
        n = 1
    elif family is Family.RANK1_SEPARABLE:
        raise ValueError("rank1_separable is parameterized by a scalar b; use rank1_orders")
    elif n not in (None, 2):
        raise ValueError(f"family {family} is 2x2 only")
    else:
        n = 2
    return _shared_matrix(family, spec, n)


@functools.lru_cache(maxsize=64)
def _shared_matrix(family: Family, spec: FieldSpec, n: int) -> Mat:
    """One B per (family, spec, n), shared by every caller: Mat is immutable."""
    if family in _FAMILY_B:
        return Mat.from_ints(spec, _FAMILY_B[family])
    return Mat.zeros(spec, n)


def canonical_theta(theta: RatFunc, j: int) -> RatFunc:
    """Reduce theta mod T^j: T^j itself when v(theta) = j, otherwise the
    truncation of the T-adic expansion to exponents [v(theta), j)."""
    spec = theta.spec
    v = theta.val
    if v == INF or v > j:
        raise ValueError(f"DDL dominance requires v(theta) <= j = {j}, got v = {v}")
    v = int(v)
    if v == j:
        return RatFunc.pi_power(spec, j)
    prec = j - v
    nu = theta.num.coeffs[int(theta.num.ord):]
    de = theta.den.coeffs[int(theta.den.ord):]
    inv0 = de[0].inverse()
    series: list[FqElem] = []
    for t in range(prec):
        s = nu[t] if t < len(nu) else spec.zero
        for s_idx in range(max(0, t - len(de) + 1), t):
            s = s - series[s_idx] * de[t - s_idx]
        series.append(s * inv0)
    poly = Poly(spec, series)
    if v >= 0:
        return RatFunc(poly.shift(v), Poly.one(spec))
    return RatFunc(poly, Poly.monomial(spec, -v))


def _is_canonical_theta(theta: RatFunc, j: int) -> bool:
    if theta == RatFunc.pi_power(theta.spec, j):
        return True
    if theta.is_zero():
        return False
    den = theta.den
    if den.ord != den.degree:          # denominator must be a pure T-power
        return False
    return theta.num.degree - den.degree < j


@dataclass(frozen=True)
class OrderRecord:
    """Canonical (i, j, theta) naming one order of its family."""

    family: Family
    p: int
    i: int
    j: int
    theta: RatFunc

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        if self.theta.spec.p != self.p:
            raise ValueError("record prime does not match the coefficient field")
        v = self.theta.val
        if v == INF or v > self.j:
            raise ValueError(f"DDL dominance requires v(theta) <= j, got v = {v}")
        if not _is_canonical_theta(self.theta, self.j):
            raise ValueError("theta is not in canonical truncated form; use OrderRecord.make")

    @classmethod
    def make(cls, family: Family, i: int, j: int, theta: RatFunc) -> "OrderRecord":
        return cls(Family(family), theta.spec.p, i, j, canonical_theta(theta, j))

    @property
    def monogenic(self) -> bool:
        """Single-generator criterion for the alpha_p2 / mono_p2 families."""
        return self.theta.val == self.j and self.p * self.j == self.i

    def theta_key(self):
        th = self.theta
        if th.val == self.j:
            return (self.j, ())
        digits = tuple(c.coeffs for c in th.num.coeffs[int(th.num.ord):])
        return (int(th.val), digits)

    def sort_key(self):
        return (self.i, self.j, self.theta_key())

    def to_json(self) -> dict:
        return {
            "family": self.family.value,
            "p": self.p,
            "i": self.i,
            "j": self.j,
            "theta": str(self.theta),
            "v_theta": None if self.theta.val == INF else int(self.theta.val),
            "monogenic": self.monogenic,
        }


def theta_for_record(record: OrderRecord) -> Mat:
    """The DDL matrix [[T^i, 0], [theta, T^j]] of the record."""
    spec = record.theta.spec
    return Mat([[RatFunc.pi_power(spec, record.i), RatFunc.zero(spec)],
                [record.theta, RatFunc.pi_power(spec, record.j)]])


def oracle_is_order(record: OrderRecord) -> bool:
    """Ground truth: delegate to the matrix pipeline and test integrality."""
    spec = record.theta.spec
    B = family_matrix(record.family, spec, 2)
    try:
        order_from_theta(B, theta_for_record(record))
        return True
    except NotIntegralError:
        return False


def predicate(record: OrderRecord) -> bool:
    """Closed-form membership test; required to agree with oracle_is_order.

    alpha_p_n:   always true (B = 0 forces A = 0).
    alpha_p2:    pj >= i,  p*v(theta) >= i,  (p+1)*v(theta) >= i+j.
    zp_x_ap:     i >= 0,  v(theta) >= j - (p-1)i.
    zp_squared:  i, j >= 0,  v(theta^p - T^((p-1)i) * theta) >= j.
    mono_p2:     pj >= i,  p*v(theta) >= i,  v(T^((p+1)i) - theta^(p+1)) >= i+j.

    Rational bounds are cleared to integer form; the remaining conditions are
    per-entry valuation facts about A = Theta^{-1} B Theta^(p).
    """
    f, p, i, j = record.family, record.p, record.i, record.j
    th = record.theta
    spec = th.spec
    v = int(th.val)
    if f is Family.ALPHA_P_N:
        return True
    if f is Family.ALPHA_P2:
        return p * j >= i and p * v >= i and (p + 1) * v >= i + j
    if f is Family.ZP_X_AP:
        return i >= 0 and v >= j - (p - 1) * i
    if f is Family.ZP_SQUARED:
        if i < 0 or j < 0:
            return False
        diff = th.pth_power() - RatFunc.pi_power(spec, (p - 1) * i) * th
        return diff.val >= j
    if f is Family.MONO_P2:
        if not (p * j >= i and p * v >= i):
            return False
        diff = RatFunc.pi_power(spec, (p + 1) * i) - th.pth_power() * th
        return diff.val >= i + j
    raise ValueError(f"no rank-p^2 predicate for family {f}")


def alpha_p2_loose_predicate(record: OrderRecord) -> bool:
    """The tempting simplification i - (p-1)j <= v(theta) <= j for alpha_p2.

    It is weaker than the true per-entry conditions (e.g. p=2, i=0, j=1,
    v(theta)=0 satisfies it yet fails integrality); it is kept so the
    agreement harness can demonstrate that it disagrees with the oracle.
    """
    if record.family is not Family.ALPHA_P2:
        raise ValueError("loose bound applies to the alpha_p2 family only")
    p, i, j = record.p, record.i, record.j
    return p * j >= i and int(record.theta.val) >= i - (p - 1) * j


# -- grid sweeps --

def _values(rng_desc: str, values: Iterable[int]) -> tuple[int, ...]:
    vals = tuple(sorted(set(int(v) for v in values)))
    if not vals:
        raise ValueError(f"empty {rng_desc} range")
    return vals


def _theta_from_coeffs(spec: FieldSpec, coeffs: list[FqElem], j: int, depth: int) -> RatFunc | None:
    """Canonical Laurent theta from sweep digits at exponents [j-depth, j)."""
    lo = next((d for d, c in enumerate(coeffs) if c), None)
    if lo is None:
        return None
    hi = max(d for d, c in enumerate(coeffs) if c)
    poly = Poly(spec, coeffs[lo:hi + 1])
    e_lo = j - depth + lo
    if e_lo >= 0:
        return RatFunc(poly.shift(e_lo), Poly.one(spec))
    return RatFunc(poly, Poly.monomial(spec, -e_lo))


def _record_from_row(family: Family, spec: FieldSpec, fq: list[FqElem],
                     row: int, i: int, j: int, depth: int) -> OrderRecord | None:
    q = spec.q
    coeffs = []
    r = row
    for _ in range(depth):
        coeffs.append(fq[r % q])
        r //= q
    theta = _theta_from_coeffs(spec, coeffs, j, depth)
    if theta is None:
        return None
    return OrderRecord(family, spec.p, i, j, theta)


# The most theta rows one (i, j) cell of a sweep may cover: q^depth.  The
# kernel holds a whole cell in memory at once.
MAX_CELL_POINTS = 2 ** 20

# The cross-check policy of the kernel's verdicts on prime fields: every row
# of a cell of at most EXHAUSTIVE_LIMIT rows is re-decided by the object
# oracle, else SPOT_CHECKS seeded rows (ENUM_SPOT_CHECKS in enumerate_orders).
EXHAUSTIVE_LIMIT = 4096
SPOT_CHECKS = 64
ENUM_SPOT_CHECKS = 16


def default_depth(p: int) -> int:
    """Sweep depth exercising every closed-form bound on both sides; for
    p >= 5 it exceeds MAX_CELL_POINTS, so those sweeps need an explicit depth."""
    return 2 * (p + 2)


@dataclass(frozen=True)
class Disagreement:
    record: OrderRecord
    predicate_verdict: bool
    oracle_verdict: bool
    witness: Witness | None

    def to_json(self) -> dict:
        out = self.record.to_json()
        out["predicate"] = self.predicate_verdict
        out["oracle"] = self.oracle_verdict
        out["witness"] = None if self.witness is None else {
            "row": self.witness.row,
            "col": self.witness.col,
            "valuation": self.witness.valuation,
            "entry": str(self.witness.entry),
        }
        return out


@dataclass(frozen=True)
class AgreementReport:
    """Predicate-vs-oracle comparison over a full (i, j, theta) grid."""

    family: Family
    p: int
    depth: int
    i_values: tuple[int, ...]
    j_values: tuple[int, ...]
    total: int
    agreements: int
    disagreements: tuple[Disagreement, ...]

    @property
    def all_agree(self) -> bool:
        return self.agreements == self.total

    def summary(self) -> str:
        return (f"family={self.family} p={self.p} depth={self.depth} "
                f"total={self.total} agreements={self.agreements} "
                f"disagreements={len(self.disagreements)}")

    def to_json(self) -> dict:
        return {
            "family": self.family.value,
            "p": self.p,
            "depth": self.depth,
            "i_values": list(self.i_values),
            "j_values": list(self.j_values),
            "total": self.total,
            "agreements": self.agreements,
            "disagreements": [d.to_json() for d in self.disagreements],
        }


class BatchMismatchError(RuntimeError):
    """The vectorized sweep disagreed with the object-level path (a bug)."""


def _sample_rows(n: int, spot: int, seed_parts) -> list[int]:
    rng = random.Random("|".join(str(s) for s in seed_parts))
    rows = {1, n - 1}
    while len(rows) < min(spot, n - 1):
        rows.add(rng.randrange(1, n))
    return sorted(rows)


def _disputed(orc, prd):
    """The points a sweep reports, on verdict arrays or single verdicts: those
    the oracle accepts when there is no predicate, else the disagreements."""
    return orc if prd is None else orc != prd


def _decide(rec: OrderRecord, pred_fn) -> tuple[OrderRecord, bool, bool | None]:
    """One point on the object path: (record, oracle verdict, predicate verdict)."""
    return rec, oracle_is_order(rec), None if pred_fn is None else pred_fn(rec)


def _predicate_column(grid, family: Family, pred_fn, record) -> np.ndarray:
    if pred_fn is predicate:
        return _batch.predicate_verdicts(grid, family.value)
    if pred_fn is alpha_p2_loose_predicate:
        return _batch.loose_alpha_p2_verdicts(grid)
    return np.array([False] + [pred_fn(record(row)) for row in range(1, grid.n)], dtype=bool)


def _sweep(family, spec, i_range, j_range, depth, pred_fn, checks):
    """The one pass over the (i, j, theta) grid behind both public sweeps.

    Validates the grid, each cell at most MAX_CELL_POINTS points, and returns
    (family, depth, i_values, j_values, cells);
    `cells` yields, per (i, j) cell, the number of points covered (theta rows
    plus T^j) and (record, oracle, predicate) for each point `_disputed`
    selects, in row order with T^j last.

    Prime fields run the numpy kernel, and with checks = (limit, spot, tag)
    the object path re-decides every row of a cell with at most `limit` rows,
    else `spot` rows seeded by (family, p, i, j, depth, tag), plus every
    disagreement when a predicate is checked; any difference raises
    BatchMismatchError.  Extension fields run the object path at every point.
    """
    family = Family(family)
    if family not in RANK_P2_FAMILIES:
        raise ValueError(f"{family} is not a rank-p^2 matrix family")
    if depth is None:
        depth = default_depth(spec.p)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    i_values = _values("i", i_range)
    j_values = _values("j", j_range)
    if depth > MAX_CELL_POINTS.bit_length() or spec.q ** depth > MAX_CELL_POINTS:
        raise ValueError(f"a cell of q^depth = {spec.q}^{depth} points exceeds the limit "
                         f"MAX_CELL_POINTS = {MAX_CELL_POINTS}; pass a smaller depth (--depth)")
    fq = list(spec.elements())
    bint = [[0, 0], [0, 0]] if family is Family.ALPHA_P_N else _FAMILY_B[family]
    limit, spot, tag = checks

    def theta_rows(i, j):
        def record(row):
            return _record_from_row(family, spec, fq, int(row), i, j, depth)

        if spec.k > 1:
            decided = (_decide(record(row), pred_fn) for row in range(1, spec.q ** depth))
            return [d for d in decided if _disputed(d[1], d[2])]
        grid = _batch.CellGrid(spec.p, i, j, depth)
        orc = _batch.oracle_verdicts(grid, bint)
        prd = None if pred_fn is None else _predicate_column(grid, family, pred_fn, record)
        disputed = np.nonzero(_disputed(orc, prd)[1:])[0] + 1
        if grid.n - 1 <= limit:
            rows = range(1, grid.n)
        else:
            rows = _sample_rows(grid.n, spot, (family.value, spec.p, i, j, depth, tag))
        if prd is not None:
            rows = sorted(set(rows).union(disputed.tolist()))
        decided = {}
        for row in rows:
            rec, *verdicts = decided[row] = _decide(record(row), pred_fn)
            batch = [bool(orc[row]), None if prd is None else bool(prd[row])]
            if verdicts != batch:
                raise BatchMismatchError(f"batch/object mismatch at {rec.to_json()}: (oracle, "
                                         f"predicate) = {verdicts} object, {batch} batch")
        if prd is not None:
            return [decided[row] for row in disputed]
        return [(record(row), True, None) for row in disputed]  # sample-checked above

    def cells():
        for i, j in itertools.product(i_values, j_values):
            if family is Family.ZP_SQUARED and (i < 0 or j < 0):
                continue  # this family's predicate requires i, j >= 0
            disputed = theta_rows(i, j)
            rec_pj = _decide(OrderRecord(family, spec.p, i, j, RatFunc.pi_power(spec, j)), pred_fn)
            if _disputed(rec_pj[1], rec_pj[2]):
                disputed.append(rec_pj)
            yield spec.q ** depth, disputed

    return family, depth, i_values, j_values, cells()


def _witness(rec: OrderRecord) -> Witness | None:
    try:
        order_from_theta(family_matrix(rec.family, rec.theta.spec, 2), theta_for_record(rec))
    except NotIntegralError as exc:
        return exc.witness
    return None


def oracle_check_family(family: Family, spec: FieldSpec,
                        i_range: Iterable[int], j_range: Iterable[int],
                        depth: int | None = None,
                        predicate_fn: Callable[[OrderRecord], bool] | None = None
                        ) -> AgreementReport:
    """Compare predicate vs oracle at every grid point; report disagreements.

    The field decides the path.  Prime fields run the vectorized kernels,
    cross-checked against the object-level oracle/predicate exhaustively when
    a cell has at most EXHAUSTIVE_LIMIT points and on SPOT_CHECKS seeded
    samples otherwise; every disagreement is confirmed on the object path and
    a mismatch raises BatchMismatchError.  Extension fields run the object
    path at every point.  A custom predicate_fn is evaluated per point (meant
    for small grids).
    """
    family, depth, i_values, j_values, cells = _sweep(
        family, spec, i_range, j_range, depth,
        predicate_fn if predicate_fn is not None else predicate,
        (EXHAUSTIVE_LIMIT, SPOT_CHECKS, "chk"))
    total = 0
    disagreements: list[Disagreement] = []
    for points, disputed in cells:
        total += points
        disagreements.extend(Disagreement(rec, g_prd, g_orc, None if g_orc else _witness(rec))
                             for rec, g_orc, g_prd in disputed)
    return AgreementReport(family, spec.p, depth, i_values, j_values,
                           total, total - len(disagreements), tuple(disagreements))


def enumerate_orders(family: Family, spec: FieldSpec,
                     i_range: Iterable[int], j_range: Iterable[int],
                     depth: int | None = None) -> list[OrderRecord]:
    """All orders in the grid passing the oracle, one canonical record each.

    The sweep covers theta = T^j plus every nonzero Laurent polynomial
    supported on [j - depth, j); distinct canonical records are distinct
    orders, so no further dedupe is needed.  On prime fields the kernel's
    verdicts are spot-checked on ENUM_SPOT_CHECKS seeded rows per cell.
    Deterministic order: (i, j, canonical theta).
    """
    *_, cells = _sweep(family, spec, i_range, j_range, depth, None,
                       (0, ENUM_SPOT_CHECKS, "enum"))
    return sorted((rec for _, disputed in cells for rec, _, _ in disputed),
                  key=OrderRecord.sort_key)


# -- rank p --

@dataclass(frozen=True)
class Rank1Result:
    """Verdict and presentation for a rank-p candidate H_i = R[T^i t]."""

    is_order: bool
    i: int
    b: RatFunc
    b_normalized: RatFunc
    a: RatFunc            # the 1x1 "A": b_normalized * T^((p-1) i)
    relation: str
    description: str

    def __bool__(self):
        return self.is_order


def rank1_orders(b: RatFunc, i: int) -> Rank1Result:
    """Decide whether R[T^i t] is an order in the rank-p algebra with t^p = b t.

    For b = 0 (the local case) every integer i works.  Otherwise b is first
    normalized by t -> T^s t so that 0 <= v(b) <= p-2, after which exactly
    the i >= 0 pass; either way the verdict is the 1x1 integrality test
    a = b * theta^(p-1) in R with theta = T^i.  |(p-1) i| may not exceed
    MAX_DEGREE, the degree bound of the parser.
    """
    spec = b.spec
    p = spec.p
    if abs((p - 1) * i) > MAX_DEGREE:
        raise ValueError(f"|(p-1)*i| = {abs((p - 1) * i)} exceeds the limit "
                         f"MAX_DEGREE = {MAX_DEGREE}")
    if b.is_zero():
        b_norm = b
    else:
        s = -(int(b.val) // (p - 1))
        b_norm = b * RatFunc.pi_power(spec, (p - 1) * s)
    a = b_norm * RatFunc.pi_power(spec, (p - 1) * i)
    ok = a.val >= 0
    gen = _term(RatFunc.pi_power(spec, i), "t")
    a_str = str(a)
    if " + " in a_str or "/" in a_str:
        a_str = f"({a_str})"
    relation = f"u^{p} = {a_str}*u"
    description = f"H_{i} = R[u], u = {gen}, {relation}"
    return Rank1Result(bool(ok), i, b, b_norm, a, relation, description)
