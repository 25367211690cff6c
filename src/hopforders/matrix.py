"""Exact linear algebra over K: the operand layer of the twisted equation.

Matrices are square, immutable, and share one field spec.  Entry (i, j) means
row i, column j; user-facing indices (witnesses, error messages) are 1-based
to match the usual matrix convention.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

from .fields import FieldSpec
from .ratfunc import RatFunc


class SingularMatrixError(ValueError):
    """Raised when an inverse of a singular matrix is requested."""


@dataclass(frozen=True)
class Witness:
    """First non-integral entry in row-major order; row/col are 1-based."""

    row: int
    col: int
    valuation: float
    entry: RatFunc

    def __str__(self):
        return f"entry ({self.row},{self.col}) has valuation {self.valuation:g}: {self.entry}"


@dataclass(frozen=True)
class IntegralityResult:
    ok: bool
    witness: Witness | None

    def __bool__(self):
        return self.ok


def _gauss_jordan(work: list[list]) -> tuple[list, int]:
    """Gauss-Jordan elimination, in place, of n row lists over a field whose
    elements test false exactly at zero (RatFunc or FqElem).

    Each of the first n columns takes as pivot its first nonzero entry at or
    below the current row, or is skipped if it has none; the pivot row is
    scaled to a unit pivot and cleared from every other row.  Row operations
    touch only the columns right of the pivot, as the reduced columns are
    never read again, so columns n and up end up reduced and the first n
    stale.  Returns the unscaled pivots (their number is the rank) and the
    number of row swaps.
    """
    n = len(work)
    pivots = []
    swaps = 0
    for col in range(n):
        k = len(pivots)
        r = next((r for r in range(k, n) if work[r][col]), None)
        if r is None:
            continue
        if r != k:
            work[k], work[r] = work[r], work[k]
            swaps += 1
        row = work[k]
        pivots.append(row[col])
        if len(row) == col + 1:
            continue
        inv = row[col].inverse()
        right = [x * inv for x in row[col + 1:]]
        row[col + 1:] = right
        for i, other in enumerate(work):
            f = other[col]
            if i != k and f:
                other[col + 1:] = [x - f * y for x, y in zip(other[col + 1:], right)]
    return pivots, swaps


class Mat:
    """An n x n matrix over K."""

    __slots__ = ("spec", "n", "rows")

    def __init__(self, rows: Sequence[Sequence[RatFunc]]):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("matrix must be square and nonempty")
        spec = rows[0][0].spec
        for r in rows:
            for x in r:
                if x.spec != spec:
                    raise ValueError("matrix entries must share one field spec")
        self.spec = spec
        self.n = n
        self.rows = rows

    @classmethod
    def from_ints(cls, spec: FieldSpec, rows: Sequence[Sequence[int]]) -> "Mat":
        return cls([[RatFunc.constant(spec, c) for c in row] for row in rows])

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> "Mat":
        one, zero = RatFunc.one(spec), RatFunc.zero(spec)
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, spec: FieldSpec, n: int) -> "Mat":
        zero = RatFunc.zero(spec)
        return cls([[zero] * n for _ in range(n)])

    @classmethod
    def diag(cls, entries: Sequence[RatFunc]) -> "Mat":
        spec = entries[0].spec
        zero = RatFunc.zero(spec)
        n = len(entries)
        return cls([[entries[i] if i == j else zero for j in range(n)] for i in range(n)])

    def __getitem__(self, idx: tuple[int, int]) -> RatFunc:
        i, j = idx
        return self.rows[i][j]

    def _check_compat(self, other: "Mat") -> None:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        if self.spec != other.spec:
            raise ValueError("matrices over different field specs")

    def __matmul__(self, other: "Mat") -> "Mat":
        self._check_compat(other)
        n = self.n
        cols = list(zip(*other.rows))
        out = []
        for row in self.rows:
            out_row = []
            for col in cols:
                acc = None
                for a, b in zip(row, col):
                    if a.is_zero() or b.is_zero():
                        continue
                    term = a * b
                    acc = term if acc is None else acc + term
                out_row.append(acc if acc is not None else RatFunc.zero(self.spec))
            out.append(out_row)
        return Mat(out)

    def __add__(self, other: "Mat") -> "Mat":
        self._check_compat(other)
        return Mat([[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other: "Mat") -> "Mat":
        self._check_compat(other)
        return Mat([[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self) -> "Mat":
        return Mat([[-a for a in r] for r in self.rows])

    def scale(self, c: RatFunc) -> "Mat":
        return Mat([[a * c for a in r] for r in self.rows])

    def det(self) -> RatFunc:
        """Exact determinant: the signed product of the elimination pivots."""
        pivots, swaps = _gauss_jordan([list(r) for r in self.rows])
        if len(pivots) < self.n:
            return RatFunc.zero(self.spec)
        det = reduce(operator.mul, pivots)
        return -det if swaps % 2 else det

    def inv(self) -> "Mat":
        """Exact inverse: Gauss-Jordan elimination of [M | I]."""
        n = self.n
        one, zero = RatFunc.one(self.spec), RatFunc.zero(self.spec)
        work = [list(r) + [one if i == j else zero for j in range(n)]
                for i, r in enumerate(self.rows)]
        if len(_gauss_jordan(work)[0]) < n:
            raise SingularMatrixError("matrix is singular over K")
        return Mat([row[n:] for row in work])

    def twist(self, p: int | None = None) -> "Mat":
        """Entry-wise p-th power (the Frobenius twist M^(p))."""
        if p is not None and p != self.spec.p:
            raise ValueError(f"twist prime {p} does not match the field (p = {self.spec.p})")
        return Mat([[a.pth_power() for a in r] for r in self.rows])

    def is_integral(self) -> IntegralityResult:
        """All entries in R; on failure reports the first row-major offender."""
        for i, row in enumerate(self.rows):
            for j, x in enumerate(row):
                if x.val < 0:
                    return IntegralityResult(False, Witness(i + 1, j + 1, x.val, x))
        return IntegralityResult(True, None)

    def is_unit(self) -> bool:
        """Membership in M_n(R)^x: integral with unit determinant."""
        return bool(self.is_integral()) and self.det().val == 0

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self.n == other.n and self.spec == other.spec and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def to_strings(self) -> list[list[str]]:
        return [[str(x) for x in row] for row in self.rows]

    def __str__(self):
        return "[" + ";".join(",".join(str(x) for x in row) for row in self.rows) + "]"

    def __repr__(self):
        return f"Mat({self})"
