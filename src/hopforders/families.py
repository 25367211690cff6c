"""The catalog of concrete rank-p and rank-p^2 cases.

Each matrix family fixes the ambient algebra's matrix B; a rank-p^2 order
inside it is identified by a canonical record (i, j, theta) standing for the
DDL embedding Theta = [[T^i, 0], [theta, T^j]].  Ground truth for membership
is always the matrix oracle (the integrality test of order_from_theta); the
closed-form predicates are fast integer/valuation conditions, each written
once for a record and a sweep cylinder, that must agree with the oracle
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

from .fields import FieldSpec
from .matrix import Mat, Witness
from .orders import _factor, _term, _twisted_quotient, _witness_at
from .parse import MAX_DEGREE
from .ratfunc import INF, Poly, RatFunc


class Family(str, Enum):
    """The five rank-p^2 presets; the tag fixes B via family_matrix."""

    ALPHA_P_N = "alpha_p_n"          # B = 0 (any n): Frobenius kernels' product
    ALPHA_P2 = "alpha_p2"            # B = [[0,1],[0,0]]: second Frobenius kernel
    ZP_X_AP = "zp_x_ap"              # B = [[1,0],[0,0]]: etale x connected product
    ZP_SQUARED = "zp_squared"        # B = I: constant group scheme of order p^2
    MONO_P2 = "mono_p2"              # B = [[0,1],[1,0]]: monogenic t^(p^2) - t

    def __str__(self):
        return self.value


# The one table of the presets' B, as 0/1 int rows.
_FAMILY_B = {
    Family.ALPHA_P_N: [[0, 0], [0, 0]],
    Family.ALPHA_P2: [[0, 1], [0, 0]],
    Family.ZP_X_AP: [[1, 0], [0, 0]],
    Family.ZP_SQUARED: [[1, 0], [0, 1]],
    Family.MONO_P2: [[0, 1], [1, 0]],
}


@functools.cache
def family_matrix(family: Family, spec: FieldSpec, n: int | None = None) -> Mat:
    """The matrix B of the family's ambient algebra: its preset for n = None
    or 2, and for alpha_p_n alone the n x n zero matrix of any other n, n = 1
    being the rank-p local B.  Every caller shares one immutable B per (family,
    spec, n); the cache is unbounded, as eviction would split n = None from 2."""
    if n is None:
        return family_matrix(family, spec, 2)
    family = Family(family)
    if n == 2:
        return Mat.from_ints(spec, _FAMILY_B[family])
    if family is not Family.ALPHA_P_N:
        raise ValueError(f"family {family} is 2x2 only")
    return Mat.zeros(spec, n)


@functools.cache
def _family_form(family: Family, spec: FieldSpec) -> tuple[tuple[tuple[Poly, ...], ...], Poly]:
    """The polynomial form (Bm, b) of family_matrix(family, spec), built once
    per (family, spec) for the oracle; tuples, as every call shares it."""
    Bm, b = family_matrix(family, spec)._polynomial_form()
    return tuple(map(tuple, Bm)), b


def _laurent(spec: FieldSpec, e: int, codes: list[int]) -> RatFunc:
    """The Laurent polynomial sum codes[d] * T^(e+d), codes[0] != 0: the shape
    of every canonical theta but T^j.  A polynomial with a nonzero constant
    term is prime to T, so the fraction is reduced as built."""
    poly = Poly._trimmed(spec, list(codes))
    if e >= 0:
        return RatFunc._raw(poly.shift(e), Poly.one(spec))
    return RatFunc._raw(poly, Poly.monomial(spec, -e))


def canonical_theta(theta: RatFunc, j: int) -> RatFunc:
    """Reduce theta mod T^j: T^j itself when v(theta) = j, otherwise the
    truncation of the T-adic expansion to exponents [v(theta), j), which is
    theta itself (the same object) when theta is a Laurent polynomial already
    inside that range.  When theta is not a Laurent polynomial its expansion
    never ends, so j - v(theta) may not exceed MAX_DEGREE."""
    spec = theta.spec
    v = theta.val
    if v == INF or v > j:
        raise ValueError(f"DDL dominance requires v(theta) <= j = {j}, got v = {v}")
    v, n = int(v), j - int(v)
    if v == j:
        return RatFunc.pi_power(spec, j)
    nu = theta.num.codes[int(theta.num.ord):]
    de = theta.den.codes[int(theta.den.ord):]
    if len(de) == 1:            # a T-power denominator: theta = T^v * nu, truncate nu
        return theta if len(nu) <= n else _laurent(spec, v, list(nu[:n]))
    if n > MAX_DEGREE:
        raise ValueError(f"the truncation of a non-Laurent theta to j - v(theta) = {n} "
                         f"terms exceeds the limit MAX_DEGREE = {MAX_DEGREE}")
    # nu/de = sum_t s_t T^t.  With x = 1/T and d = deg de, x^(n-1+d) nu(1/x) / (x^d de(1/x))
    # = sum_t s_t x^(n-1-t), nu cut or padded to the n terms that s_0..s_(n-1) read: so the
    # quotient of these reversed polynomials is s_0..s_(n-1) reversed, the remainder the rest.
    head = nu[:n] + (0,) * (n - len(nu))
    quotient = Poly._raw(spec, (0,) * (len(de) - 1) + head[::-1]) // Poly._raw(spec, de[::-1])
    return _laurent(spec, v, list(quotient.codes[::-1]))


@dataclass(frozen=True)
class OrderRecord:
    """Canonical (i, j, theta) naming one order of its family.  theta must be
    what canonical_theta(theta, j) returns; that call also tests v(theta) <= j."""

    family: Family
    p: int
    i: int
    j: int
    theta: RatFunc

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        if self.theta.spec.p != self.p:
            raise ValueError("record prime does not match the coefficient field")
        if canonical_theta(self.theta, self.j) != self.theta:
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
        digits = tuple(map(th.spec._digits, th.num.codes[int(th.num.ord):]))
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
            "v_theta": int(self.theta.val),
            "monogenic": self.monogenic,
        }


def theta_for_record(record: OrderRecord) -> Mat:
    """The DDL matrix [[T^i, 0], [theta, T^j]] of the record."""
    spec = record.theta.spec
    return Mat([[RatFunc.pi_power(spec, record.i), RatFunc.zero(spec)],
                [record.theta, RatFunc.pi_power(spec, record.j)]])


def _record_form(record: OrderRecord) -> tuple[list[list[Poly]], Poly]:
    """theta_for_record(record)._polynomial_form(), read off (i, j, theta):
    every denominator is a T-power, so d = T^s for s = max(0, -i, -j,
    deg den theta).  d is built first and every entry by Poly.monomial or
    Poly.shift, so a record past MAX_TWIST_DEGREE is refused before any
    T-power of its size exists."""
    i, j, theta = record.i, record.j, record.theta
    spec, e = theta.spec, theta.den.degree
    s = max(0, -i, -j, e)
    d = Poly.monomial(spec, s)
    return [[Poly.monomial(spec, i + s), Poly.zero(spec)],
            [theta.num.shift(s - e), Poly.monomial(spec, j + s)]], d


def _quotient(rec: OrderRecord):
    """_twisted_quotient of the record: (N, D, first failing position or None)."""
    return _twisted_quotient(_family_form(rec.family, rec.theta.spec), _record_form(rec))


def _witness(rec: OrderRecord) -> Witness | None:
    """The first non-integral entry of the record's A, None if A is integral."""
    return _witness_at(*_quotient(rec))


def oracle_is_order(record: OrderRecord) -> bool:
    """Ground truth: the integrality test of the matrix pipeline."""
    return _quotient(record)[2] is None


def _closed_form(family, p, i, j, theta, T):
    """The closed form of `family`, with T(e) = T^e.  Conditions combine with
    `&`, so the same text runs on a record (RatFunc theta, int v) and on a
    sweep cylinder (_walk.Laurent theta, v exact or a bound, `&` Kleene's)."""
    if family is Family.ALPHA_P_N:
        return True
    v, twist = theta.val, theta.pth_power       # twist() = theta^(p)
    if family is Family.ALPHA_P2:
        return (p * j >= i) & (p * v >= i) & ((p + 1) * v >= i + j)
    if family is Family.ZP_X_AP:
        return (i >= 0) & (v >= j - (p - 1) * i)
    # below, a record whose bounds fail skips the twist and valuation: its T-power may be long
    if family is Family.ZP_SQUARED:
        bounds = (i >= 0) & (j >= 0)
        return bounds is not False and bounds & ((twist() - T((p - 1) * i) * theta).val >= j)
    # mono_p2; a cylinder whose scalar bound p*j >= i fails skips the twist as well
    bounds = p * j >= i and (p * v >= i)
    return bounds is not False and bounds & ((T((p + 1) * i) - twist() * theta).val >= i + j)


def _loose_closed_form(family, p, i, j, theta, T):
    """The loose alpha_p2 bound, called like _closed_form."""
    if family is not Family.ALPHA_P2:
        raise ValueError("loose bound applies to the alpha_p2 family only")
    return (p * j >= i) & (theta.val >= i - (p - 1) * j)


def _at_record(form, record: OrderRecord) -> bool:
    th = record.theta
    return form(record.family, record.p, record.i, record.j, th,
                functools.partial(RatFunc.pi_power, th.spec))


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
    return _at_record(_closed_form, record)


def alpha_p2_loose_predicate(record: OrderRecord) -> bool:
    """The tempting simplification i - (p-1)j <= v(theta) <= j for alpha_p2.

    It is weaker than the true per-entry conditions (e.g. p=2, i=0, j=1,
    v(theta)=0 satisfies it yet fails integrality); it is kept so the
    agreement harness can demonstrate that it disagrees with the oracle.
    """
    return _at_record(_loose_closed_form, record)


# -- grid sweeps --

def _values(rng_desc: str, values: Iterable[int]) -> tuple[int, ...]:
    vals = tuple(sorted(set(int(v) for v in values)))
    if not vals:
        raise ValueError(f"empty {rng_desc} range")
    return vals


def _record_from_row(family: Family, spec: FieldSpec,
                     row: int, i: int, j: int, depth: int) -> OrderRecord:
    """The record of a sweep row: its base-q digits are the codes of the
    coefficients of theta at exponents [j-depth, j), as in _walk.cylinders.
    Row 0, theta = 0, gives the T^j record: Theta = diag(T^i, T^j) names the
    order of [[T^i, 0], [T^j, T^j]] = diag(T^i, T^j) @ U for the unit
    U = [[1, 0], [1, 1]], as Theta and Theta @ U name the same order."""
    q = spec.q
    codes = [row // q ** d % q for d in range(depth)]
    lo = next((d for d, c in enumerate(codes) if c), None)
    theta = (RatFunc.pi_power(spec, j) if lo is None
             else _laurent(spec, j - depth + lo, codes[lo:]))
    return OrderRecord(family, spec.p, i, j, theta)


# The most points a whole sweep may cover: len(i) * len(j) * q^depth, which
# bounds its time, and so the q^depth points of one cell too.
MAX_SWEEP_POINTS = 2 ** 24
# The most (i, j) cells a whole sweep may cover: len(i) * len(j), as each cell
# costs a walk whatever its size.  MAX_DEGREE bounds (p+1) * max(|i|, |j|),
# the degree of the T-powers a cell builds.
MAX_SWEEP_CELLS = 2 ** 14
# The most records a whole sweep may return, checked before a cell builds any.
MAX_RECORDS = 2 ** 16

# The cross-check policy of the walk's verdicts, on every field: every row
# of a cell of at most EXHAUSTIVE_LIMIT rows is re-decided by the object
# oracle, else SPOT_CHECKS seeded rows (ENUM_SPOT_CHECKS in enumerate_orders).
EXHAUSTIVE_LIMIT = 4096
SPOT_CHECKS = 64
ENUM_SPOT_CHECKS = 16


def default_depth(p: int) -> int:
    """Sweep depth exercising every closed-form bound on both sides; for
    p >= 5 a cell at it exceeds MAX_SWEEP_POINTS, so those sweeps need an explicit depth."""
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
        out["witness"] = None if self.witness is None else self.witness.to_json()
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
    """The cylinder walk disagreed with the object-level path (a bug): the
    (oracle, predicate) verdicts of each path at one record."""

    def __init__(self, rec, objects, batch):
        super().__init__(f"batch/object mismatch at {rec.to_json()}: (oracle, "
                         f"predicate) = {objects} object, {batch} batch")


def _sample_rows(n: int, spot: int, seed_parts) -> list[int]:
    rng = random.Random("|".join(str(s) for s in seed_parts))
    rows = {1, n - 1}
    while len(rows) < min(spot, n - 1):
        rows.add(rng.randrange(1, n))
    return sorted(rows)


def _sweep(family, spec, i_range, j_range, depth, form, checks):
    """The one pass over the (i, j, theta) grid behind both public sweeps.

    Validates the grid, at most MAX_SWEEP_POINTS points and MAX_SWEEP_CELLS
    cells, and (p+1) * max(|i|, |j|) at most MAX_DEGREE, then returns (family,
    depth, i_values, j_values, total, found): `total` counts the points
    covered, the q^depth grid rows of each cell, whose row 0 is the T^j
    record, and `found` holds (record, oracle, predicate) for each point the
    oracle accepts when the closed form `form` is None, else each
    disagreement, cell by cell, theta rows ascending and T^j last.  A cell
    whose records would take `found` past MAX_RECORDS raises ValueError
    before it builds any of them.

    Every field decides each cell by _walk.cylinders, and with checks =
    (limit, spot, tag) the object path re-decides every row of a cell with at
    most `limit` rows, else row 0 and `spot` rows seeded by (family, p, i, j,
    depth, tag), plus every disagreement when a closed form is checked; a
    difference from the verdict of the row's cylinder raises
    BatchMismatchError.
    """
    family = Family(family)
    if depth is None:
        depth = default_depth(spec.p)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    # an iterable without len() is read to one value past MAX_SWEEP_CELLS, enough to breach it
    i_range, j_range = (r if hasattr(r, "__len__") else
                        tuple(itertools.islice(r, MAX_SWEEP_CELLS + 1)) for r in (i_range, j_range))
    try:            # past q^25 the limit is passed anyway: a huge depth builds no huge int
        points = len(i_range) * len(j_range) * spec.q ** min(depth, MAX_SWEEP_POINTS.bit_length())
    except OverflowError:           # a range of more than sys.maxsize values
        points = MAX_SWEEP_POINTS + 1
    if points > MAX_SWEEP_POINTS:
        raise ValueError(f"a sweep of len(i) * len(j) * q^depth points exceeds the limit "
                         f"MAX_SWEEP_POINTS = {MAX_SWEEP_POINTS}; pass a smaller depth or "
                         f"ranges (--depth, --i, --j)")
    i_values = _values("i", i_range)
    j_values = _values("j", j_range)
    if len(i_range) * len(j_range) > MAX_SWEEP_CELLS:
        raise ValueError(f"a sweep of len(i) * len(j) cells exceeds the limit "
                         f"MAX_SWEEP_CELLS = {MAX_SWEEP_CELLS}; pass smaller ranges (--i, --j)")
    ends = (i_values[0], i_values[-1], j_values[0], j_values[-1])
    degree = (spec.p + 1) * max(map(abs, ends))
    if degree > MAX_DEGREE:
        raise ValueError(f"(p+1) * max(|i|, |j|) = {degree} exceeds the limit "
                         f"MAX_DEGREE = {MAX_DEGREE}; pass smaller exponents (--i, --j)")
    from . import _walk             # the walk loads with the first sweep
    q, B, n = spec.q, family_matrix(family, spec), spec.q ** depth
    limit, spot, tag = checks
    total = 0
    found: list[tuple[OrderRecord, bool, bool | None]] = []
    for i, j in itertools.product(i_values, j_values):
        if family is Family.ZP_SQUARED and (i < 0 or j < 0):
            continue  # this family's predicate requires i, j >= 0
        record = functools.partial(_record_from_row, family, spec, i=i, j=j, depth=depth)
        cell_form = None if form is None else functools.partial(form, family, spec.p, i, j)
        walk = {(k, base): [orc, prd]
                for k, base, orc, prd in _walk.cylinders(B, i, j, depth, cell_form)}
        picked = [key for key, (orc, prd) in walk.items() if (orc if form is None else orc != prd)]
        if len(found) + sum(n // q ** k for k, _ in picked) > MAX_RECORDS:
            raise ValueError(f"the records of a sweep exceed the limit MAX_RECORDS = "
                             f"{MAX_RECORDS}; pass a smaller depth or ranges (--depth, --i, --j)")
        # theta rows ascending, then row 0: a cell lists its T^j record last
        disputed = sorted(itertools.chain.from_iterable(range(b, n, q ** k) for k, b in picked),
                          key=lambda row: row or n)
        if n <= limit:
            rows = range(n)
        else:
            rows = [0] + _sample_rows(n, spot, (family.value, spec.p, i, j, depth, tag))
        if form is not None:
            rows = sorted(set(rows).union(disputed))
        decided = {}
        for row in rows:
            rec = record(row)
            verdicts = [oracle_is_order(rec), None if form is None else _at_record(form, rec)]
            # the cylinders partition the rows: one holds the row's k lowest digits
            batch = next(walk[key] for key in ((k, row % q ** k) for k in range(depth + 1))
                         if key in walk)
            if verdicts != batch:
                raise BatchMismatchError(rec, verdicts, batch)
            decided[row] = (rec, *verdicts)
        # with no predicate, a row not sampled is one the walk's oracle accepts
        found += [decided.get(row) or (record(row), True, None) for row in disputed]
        total += n
    return family, depth, i_values, j_values, total, found


def oracle_check_family(family: Family, spec: FieldSpec,
                        i_range: Iterable[int], j_range: Iterable[int],
                        depth: int | None = None,
                        predicate_fn: Callable[[OrderRecord], bool] | None = None
                        ) -> AgreementReport:
    """Compare predicate vs oracle at every grid point; report disagreements.

    Every field runs the cylinder walk, cross-checked against the
    object-level oracle/predicate exhaustively when a cell has at most
    EXHAUSTIVE_LIMIT points and on SPOT_CHECKS seeded samples otherwise;
    every disagreement is confirmed on the object path and a mismatch raises
    BatchMismatchError.  predicate_fn is None or `predicate` (the closed
    forms) or `alpha_p2_loose_predicate`; any other raises ValueError.
    """
    if predicate_fn not in (None, predicate, alpha_p2_loose_predicate):
        raise ValueError("predicate_fn must be None, predicate or alpha_p2_loose_predicate")
    form = _loose_closed_form if predicate_fn is alpha_p2_loose_predicate else _closed_form
    family, depth, i_values, j_values, total, found = _sweep(
        family, spec, i_range, j_range, depth, form, (EXHAUSTIVE_LIMIT, SPOT_CHECKS, "chk"))
    disagreements = tuple(Disagreement(rec, g_prd, g_orc, None if g_orc else _witness(rec))
                          for rec, g_orc, g_prd in found)
    return AgreementReport(family, spec.p, depth, i_values, j_values,
                           total, total - len(disagreements), disagreements)


def enumerate_orders(family: Family, spec: FieldSpec,
                     i_range: Iterable[int], j_range: Iterable[int],
                     depth: int | None = None) -> list[OrderRecord]:
    """All orders in the grid passing the oracle, one canonical record each.

    The sweep covers theta = T^j plus every nonzero Laurent polynomial
    supported on [j - depth, j); distinct canonical records are distinct
    orders, so no further dedupe is needed.  The walk's verdicts are
    spot-checked on ENUM_SPOT_CHECKS seeded rows per cell.
    Deterministic order: (i, j, canonical theta).
    """
    *_, found = _sweep(family, spec, i_range, j_range, depth, None,
                       (0, ENUM_SPOT_CHECKS, "enum"))
    return sorted((rec for rec, _, _ in found), key=OrderRecord.sort_key)


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
    the i >= 0 pass; either way the verdict is the 1x1 integrality test of
    orders._twisted_quotient, a = b * theta^(p-1) in R with theta = T^i.
    |(p-1) i| may not exceed MAX_DEGREE, the degree bound of the parser.
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
    theta = RatFunc.pi_power(spec, i)
    N, D, pos = _twisted_quotient(([[b_norm.num]], b_norm.den), ([[theta.num]], theta.den))
    a = RatFunc(N[0][0], D)
    gen = _term(theta, "t")
    relation = f"u^{p} = {_factor(a)}*u"
    description = f"H_{i} = R[u], u = {gen}, {relation}"
    return Rank1Result(pos is None, i, b, b_norm, a, relation, description)
