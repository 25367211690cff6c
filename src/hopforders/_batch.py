"""Vectorized exact sweeps over the (i, j, theta) grid, for every field F_q.

Large enumerations evaluate the integrality condition at up to q^depth
candidate thetas per (i, j) cell, families.KERNEL_ROWS rows at a time.  The
object-level matrix pipeline is far too slow for that in CPython, so this
module performs the same computation batched: a `Laurent` scalar holds one
int64 column of F_q codes per exponent of T, one row per sweep point (a
plain int stands for a constant column), and its operators run the field's
one code arithmetic, `FieldSpec.arith`, on whole columns.  The 2x2 pipeline
below is the generic A = Theta^{-1} B Theta^(p) specialized to
Theta = [[T^i, 0], [theta, T^j]]:

    det Theta = T^(i+j),  adj Theta = [[T^j, 0], [-theta, T^i]],
    A integral  <=>  adj(Theta) @ B @ Theta^(p) has no coefficient below T^(i+j).

All arithmetic is exact.  Callers (families.oracle_check_family /
enumerate_orders) cross-check these verdicts against the object-level oracle,
exhaustively on small cells and on seeded samples of large ones; any mismatch
raises.  This module imports numpy at module level; `families` imports it,
and numpy itself in `_sweep` and `_predicate_column`, when a sweep runs.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .fields import FieldSpec, _Arith
from .matrix import _matmul

BIG = 1 << 40  # stand-in for +infinity in integer valuation arrays


@functools.lru_cache(maxsize=16)
def _arith(spec: FieldSpec) -> _Arith:
    """spec.arith, running on int64 columns: for k > 1 over numpy copies of
    the field's log, exp and Frobenius tables."""
    ar = spec.arith
    if spec.k == 1:
        return ar
    frobs = list(map(ar.frob, range(spec.q)))
    return _Arith(spec.p, spec.k, None, tuple(map(np.array, (ar.log, ar.exp, frobs))))


class Laurent:
    """A Laurent polynomial in T over F_q per grid row: {exponent: column}.
    False exactly when it has no terms, as `matrix._matmul` expects."""

    __slots__ = ("ar", "n", "terms")

    def __init__(self, ar, n: int, terms: dict):
        self.ar, self.n, self.terms = ar, n, terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other: "Laurent") -> "Laurent":
        add = self.ar.add
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = add(out[e], c) if e in out else c
        return Laurent(self.ar, self.n, out)

    def __neg__(self) -> "Laurent":
        neg = self.ar.neg
        return Laurent(self.ar, self.n, {e: neg(c) for e, c in self.terms.items()})

    def __sub__(self, other: "Laurent") -> "Laurent":
        return self + -other

    def __mul__(self, other: "Laurent") -> "Laurent":
        mul, add = self.ar.mul, self.ar.add
        out: dict = {}
        for (e1, c1), (e2, c2) in itertools.product(self.terms.items(), other.terms.items()):
            e, prod = e1 + e2, mul(c1, c2)
            out[e] = add(out[e], prod) if e in out else prod
        return Laurent(self.ar, self.n, out)

    def pth_power(self) -> "Laurent":
        """The Frobenius twist: Frobenius on the coefficients, exponents scaled by p."""
        ar = self.ar
        return Laurent(ar, self.n, {ar.p * e: ar.frob(c) for e, c in self.terms.items()})

    @property
    def val(self) -> np.ndarray:
        """Per row, the least exponent with a nonzero coefficient; BIG if none."""
        val = np.full(self.n, BIG, dtype=np.int64)
        for e in sorted(self.terms, reverse=True):
            val = np.where(self.terms[e] != 0, e, val)
        return val


class CellGrid:
    """The theta candidates of `rows`, a range inside [0, q^depth).

    Row r encodes theta = sum_d c_d T^(j-depth+d), the c_d being the base-q
    digits of r read as F_q codes; row 0 is theta = 0, whose order is that of
    the T^j record.  Entry k of each column is row rows[k].
    """

    __slots__ = ("p", "i", "j", "n", "ar", "theta")

    def __init__(self, spec: FieldSpec, i: int, j: int, depth: int, rows: range):
        q, n, ar = spec.q, len(rows), _arith(spec)
        base = np.arange(rows.start, rows.stop, rows.step, dtype=np.int64)
        self.p, self.i, self.j, self.n, self.ar = spec.p, i, j, n, ar
        self.theta = Laurent(ar, n, {j - depth + d: base // q ** d % q for d in range(depth)})

    def pi_power(self, e: int) -> Laurent:
        """T^e on every row."""
        return Laurent(self.ar, self.n, {e: 1})


def oracle_verdicts(grid: CellGrid, b01) -> np.ndarray:
    """Integrality of Theta^{-1} B Theta^(p) per theta row (row 0, theta = 0,
    is the T^j record), for B given by its 0/1 int rows `b01`."""
    p, i, j = grid.p, grid.i, grid.j
    T, zero = grid.pi_power, Laurent(grid.ar, grid.n, {})
    adj = [[T(j), zero], [-grid.theta, T(i)]]
    twist = [[T(p * i), zero], [grid.theta.pth_power(), T(p * j)]]
    bm = [[T(0) if b else zero for b in row] for row in b01]
    numerator = _matmul(adj, _matmul(bm, twist, zero), zero)
    cut = i + j  # dividing by det = T^(i+j)
    ok = np.ones(grid.n, dtype=bool)
    for entry in itertools.chain.from_iterable(numerator):
        for e, c in entry.terms.items():
            if e < cut:
                ok &= c == 0
    return ok
