"""Exact linear algebra over K: the operand layer of the twisted equation.

Matrices are square, immutable, and share one field spec.  Entry (i, j) means
row i, column j; user-facing indices (witnesses, error messages) are 1-based
to match the usual matrix convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .fields import FieldSpec
from .ratfunc import Poly, RatFunc, poly_gcd


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

    def to_json(self) -> dict:
        return {"row": self.row, "col": self.col, "valuation": self.valuation,
                "entry": str(self.entry)}


@dataclass(frozen=True)
class IntegralityResult:
    ok: bool
    witness: Witness | None

    def __bool__(self):
        return self.ok


def _bareiss(work: list[list[Poly]]) -> tuple[int, Poly | None, int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss), in place, of n row
    lists over F_q[T].

    Each of the first n columns takes as pivot its first nonzero entry at or
    below the current row, or is skipped if it has none.  Every other row r
    becomes (pivot * r - r[col] * pivot row) / previous pivot, and that
    division is exact: each entry is then a minor of the input (Sylvester's
    identity).  Row operations touch only the columns right of the pivot, as
    the reduced columns are never read again.  Eliminating [M | Y] for a
    nonsingular M leaves s * det M as the last pivot and s * adj M * Y in the
    right block, s = (-1)^swaps.  Returns the rank, the last pivot (None at
    rank 0) and the number of row swaps.
    """
    n = len(work)
    rank = swaps = 0
    prev = None
    for col in range(n):
        r = next((r for r in range(rank, n) if work[r][col]), None)
        if r is None:
            continue
        if r != rank:
            work[rank], work[r] = work[r], work[rank]
            swaps += 1
        piv = work[rank][col]
        right = work[rank][col + 1:]
        for i, row in enumerate(work):
            if i == rank:
                continue
            f = row[col]
            new = [piv * x - f * y for x, y in zip(row[col + 1:], right)]
            row[col + 1:] = new if prev is None else [x // prev for x in new]
        prev = piv
        rank += 1
    return rank, prev, swaps


def _solve(M: list[list[Poly]], Y: Sequence[Sequence[Poly]]) -> tuple[list[list[Poly]], Poly]:
    """(s * adj M * Y, s * det M) for a square M over F_q[T] and a Y with as
    many rows, s = +-1: for n = 2 from adj M = [[d, -b], [-c, a]] in closed
    form (s = 1), otherwise by one elimination of [M | Y];
    SingularMatrixError when det M = 0."""
    n = len(M)
    if n == 2:
        # subtraction, not Poly.__neg__: its tuple(map(...)) cost agree_p2 about 1 MB of peak RSS
        (a, b), (c, d) = M
        det = a * d - b * c
        if not det:
            raise SingularMatrixError("matrix is singular over K")
        cols = list(zip(*Y))
        return [[d * y0 - b * y1 for y0, y1 in cols], [a * y1 - c * y0 for y0, y1 in cols]], det
    work = [list(m) + list(y) for m, y in zip(M, Y)]
    rank, det, _ = _bareiss(work)
    if rank < n:
        raise SingularMatrixError("matrix is singular over K")
    return [row[n:] for row in work], det


def _matmul(X: Sequence[Sequence], Y: Sequence[Sequence], zero) -> list[list]:
    """X @ Y for row lists over a ring whose elements test false exactly at
    zero (RatFunc or Poly): zero products are skipped, each sum starts
    from its first term, and an entry with no nonzero term is `zero`."""
    cols = list(zip(*Y))
    out = []
    for row in X:
        out_row = []
        for col in cols:
            acc = None
            for a, b in zip(row, col):
                if a and b:
                    acc = a * b if acc is None else acc + a * b
            out_row.append(zero if acc is None else acc)
        out.append(out_row)
    return out


def _lcm(a: Poly, b: Poly) -> Poly:
    """Monic lcm of monic a and b."""
    if b.is_one() or a == b:
        return a
    if a.is_one():
        return b
    return a * (b // poly_gcd(a, b))


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
        return Mat(_matmul(self.rows, other.rows, RatFunc.zero(self.spec)))

    def __add__(self, other: "Mat") -> "Mat":
        self._check_compat(other)
        return Mat([[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other: "Mat") -> "Mat":
        return self + -other

    def __neg__(self) -> "Mat":
        return Mat([[-a for a in r] for r in self.rows])

    def scale(self, c: RatFunc) -> "Mat":
        return Mat([[a * c for a in r] for r in self.rows])

    def _polynomial_form(self) -> tuple[list[list[Poly]], Poly]:
        """(M, d) with self = M / d: M over F_q[T], d the monic lcm of the
        entry denominators."""
        d = Poly.one(self.spec)
        for row in self.rows:
            for x in row:
                d = _lcm(d, x.den)
        return [[x.num * (d // x.den) for x in row] for row in self.rows], d

    def det(self) -> RatFunc:
        """Exact determinant det M / d^n for self = M / d, by fraction-free
        elimination of M."""
        M, d = self._polynomial_form()
        rank, last, swaps = _bareiss(M)
        if rank < self.n:
            return RatFunc.zero(self.spec)
        return RatFunc(-last if swaps % 2 else last, d ** self.n)

    def inv(self) -> "Mat":
        """Exact inverse d * adj M / det M for self = M / d, one canonical
        RatFunc per entry."""
        M, d = self._polynomial_form()
        n, one, zero = self.n, Poly.one(self.spec), Poly.zero(self.spec)
        adj, det = _solve(M, [[one if i == j else zero for j in range(n)] for i in range(n)])
        return Mat([[RatFunc(d * x, det) for x in row] for row in adj])

    def twist(self) -> "Mat":
        """Entry-wise p-th power (the Frobenius twist M^(p))."""
        return Mat([[a.pth_power() for a in r] for r in self.rows])

    def is_integral(self) -> IntegralityResult:
        """All entries in R; on failure reports the first row-major offender."""
        for i, row in enumerate(self.rows):
            for j, x in enumerate(row):
                if x.val < 0:
                    return IntegralityResult(False, Witness(i + 1, j + 1, x.val, x))
        return IntegralityResult(True, None)

    def is_unit(self) -> bool:
        """Membership in M_n(R)^x: integral with unit determinant, i.e. for
        self = M / d, M of full rank with ord det M = n * ord d."""
        if not self.is_integral():
            return False
        M, d = self._polynomial_form()
        rank, det, _ = _bareiss(M)
        return rank == self.n and det.ord == self.n * d.ord

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
