"""Hopf orders from matrices: the twisted equation Theta*A = B*Theta^(p).

A primitively generated Hopf algebra of rank p^n over the base is presented
by an n x n matrix: column i records the p-th power of the i-th primitive
generator, t_i^p = sum_j a_{j,i} t_j.  Given the matrix B of an ambient
K-Hopf algebra and an invertible Theta over K, the matrix

    A = Theta^{-1} * B * Theta^(p)

has entries in the valuation ring R exactly when Theta embeds an R-Hopf
order, with column i of Theta giving the embedded generator
u_i = sum_j theta_{j,i} t_j.  Two embeddings Theta, Theta' give the same
order (as a subset) exactly when Theta^{-1}Theta' is a unit of M_n(R).

Over a complete base every embedding can be normalized to a DDL matrix:
lower triangular, pure T-power diagonal, and in every row the diagonal
valuation dominates the valuation of every entry to its left.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .fields import FqElem
from .matrix import Mat, SingularMatrixError, Witness, _bareiss, _matmul, _solve
from .ratfunc import INF, Poly, RatFunc


class NotIntegralError(Exception):
    """A = Theta^{-1} B Theta^(p) has a non-integral entry."""

    def __init__(self, witness: Witness):
        super().__init__(witness)
        self.witness = witness

    def __str__(self):
        return f"resulting matrix is not integral: {self.witness}"


def _factor(x: RatFunc) -> str:
    """The one factor printer: str(x), parenthesized when it is a sum or a fraction."""
    s = str(x)
    return f"({s})" if " + " in s or "/" in s else s


def _term(coef: RatFunc, name: str) -> str:
    """Format coef*name, dropping unit coefficients."""
    return name if coef.is_one() else f"{_factor(coef)}*{name}"


def _terms(M: Mat, col: int, names: tuple[str, ...]) -> list[str]:
    """The one linear-combination printer: the _term of each nonzero entry of
    column col of M, with names[j] naming row j."""
    return [_term(row[col], name) for row, name in zip(M.rows, names) if not row[col].is_zero()]


def _default_gens(prefix: str, n: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i + 1}" for i in range(n))


@dataclass(frozen=True)
class Presentation:
    """The order as an abstract R-algebra: R[u_1..u_n]/(u_i^p - sum_j a_{j,i} u_j).

    All generators are primitive (Delta(u) = u x 1 + 1 x u); the relations are
    read off the columns of the integral matrix A.
    """

    A: Mat
    gens: tuple[str, ...]

    def relations(self) -> list[str]:
        p = self.A.spec.p
        return [" - ".join([f"{g}^{p}", *_terms(self.A, i, self.gens)])
                for i, g in enumerate(self.gens)]

    def text(self) -> str:
        return f"R[{','.join(self.gens)}]/({', '.join(self.relations())})"

    def to_json(self) -> dict:
        return {
            "gens": list(self.gens),
            "matrix": self.A.to_strings(),
            "relations": self.relations(),
            "text": self.text(),
        }

    def __str__(self):
        return self.text()


@dataclass(frozen=True)
class Embedding:
    """Column i of theta sends the source generator u_i to sum_j theta_{j,i} t_j."""

    theta: Mat
    source_gens: tuple[str, ...]
    target_gens: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "theta": self.theta.to_strings(),
            "source_gens": list(self.source_gens),
            "target_gens": list(self.target_gens),
            "generators": embedding_generators(self),
        }


@dataclass(frozen=True)
class OrderResult:
    """A successful construction: the matrix A, the embedding, the presentation."""

    A: Mat
    embedding: Embedding
    presentation: Presentation


@dataclass(frozen=True)
class FibreReport:
    """The special fibre of an order, read off A mod T.

    fpower_ranks[m-1] is the rank of N_m = Abar * Abar^(p) * ... * Abar^(p^(m-1)),
    the matrix of the m-th power of the semilinear operator on the fibre.  The
    fibre is etale when N_n is invertible and connected when N_n = 0.
    """

    abar: tuple[tuple[FqElem, ...], ...]
    fpower_ranks: tuple[int, ...]
    etale_rank: int
    connected: bool
    etale: bool

    @property
    def classification(self) -> str:
        if self.etale:
            return "etale"
        if self.connected:
            return "connected"
        return "mixed"

    def to_json(self) -> dict:
        return {
            "abar": [[str(c) for c in row] for row in self.abar],
            "fpower_ranks": list(self.fpower_ranks),
            "etale_rank": self.etale_rank,
            "connected": self.connected,
            "etale": self.etale,
            "classification": self.classification,
        }


def presentation_from_matrix(A: Mat) -> Presentation:
    """Presentation with relations u_i^p - sum_j a_{j,i} u_j (column-indexed)."""
    res = A.is_integral()
    if not res:
        raise ValueError(f"presentation requires an integral matrix: {res.witness}")
    return Presentation(A, _default_gens("u", A.n))


def _twisted_quotient(B: tuple[Sequence[Sequence[Poly]], Poly],
                      theta: tuple[Sequence[Sequence[Poly]], Poly]
                      ) -> tuple[list[list[Poly]], Poly, tuple[int, int] | None]:
    """The integrality test behind order_from_theta, the family oracle and
    rank1_orders, on the polynomial forms B = (Bm, b) and theta = (M, d) of an
    integral B = Bm / b of Theta's size and spec and of Theta = M / d over
    F_q[T] (the callers' duty; Mat._polynomial_form gives both): (N, D, pos),
    A = Theta^{-1} B Theta^(p) = N / D, pos the 0-based (row, col) of the
    first entry of A in row-major order with ord(N_ij) < ord(D), None if A is
    integral; _witness_at builds its Witness on demand.  N = adj(M) Bm M^(p)
    and D = det M * b * d^(p-1), with d^(p-1) = d^(p) / d so that every twist
    is bounded by MAX_TWIST_DEGREE; no division in K happens before the
    verdict."""
    (Bm, b), (M, d) = B, theta
    twisted = [[x.pth_power() for x in row] for row in M]
    N, det = _solve(M, _matmul(Bm, twisted, Poly.zero(d.spec)))
    D = det * b * (d.pth_power() // d)
    ord_D = D.ord
    for i, row in enumerate(N):
        for j, x in enumerate(row):
            if x and x.ord < ord_D:
                return N, D, (i, j)
    return N, D, None


def _witness_at(N: list[list[Poly]], D: Poly, pos: tuple[int, int] | None) -> Witness | None:
    """The Witness of entry pos of A = N / D, as _twisted_quotient returns them."""
    if pos is None:
        return None
    i, j = pos
    entry = RatFunc(N[i][j], D)
    return Witness(i + 1, j + 1, entry.val, entry)


def order_from_theta(B: Mat, theta: Mat) -> OrderResult:
    """Construct the order determined by Theta inside the algebra with matrix B.

    Computes A = Theta^{-1} B Theta^(p).  Succeeds iff A is integral; raises
    NotIntegralError carrying the first offending entry otherwise, and
    SingularMatrixError for non-invertible Theta, after checking B (integral,
    of Theta's size and spec)."""
    res = B.is_integral()
    if not res:
        raise ValueError(f"B must be integral: {res.witness}")
    if B.n != theta.n or B.spec != theta.spec:
        raise ValueError("B and Theta must have equal size over one field spec")
    N, D, pos = _twisted_quotient(B._polynomial_form(), theta._polynomial_form())
    if pos is not None:
        raise NotIntegralError(_witness_at(N, D, pos))
    A = Mat([[RatFunc(x, D) for x in row] for row in N])
    gens = _default_gens("u", A.n)
    return OrderResult(A, Embedding(theta, gens, _default_gens("t", A.n)), Presentation(A, gens))


def verify_twisted_equation(theta: Mat, A: Mat, B: Mat) -> bool:
    """Exact check of Theta*A = B*Theta^(p)."""
    if not (theta.n == A.n == B.n):
        raise ValueError("dimension mismatch")
    return (theta @ A) == (B @ theta.twist())


def same_order(theta1: Mat, theta2: Mat) -> bool:
    """Whether two embeddings give the same order: U = Theta^{-1}Theta' in
    M_n(R)^x.  With Theta = M1 / d1 and Theta' = M2 / d2 over F_q[T],
    U = d1 N / (d2 D) for N = adj(M1) M2, D = det M1, and det U =
    d1^n det M2 / (d2^n D), so both tests compare T-adic orders.  Errors come
    in the order: singular Theta, size or spec mismatch, singular Theta'."""
    M1, d1 = theta1._polynomial_form()
    n = theta1.n
    if theta2.n != n or theta2.spec != theta1.spec:
        _solve(M1, [()] * n)    # M1 alone: a singular Theta is reported first
        theta1._check_compat(theta2)
    M2, d2 = theta2._polynomial_form()
    N, D = _solve(M1, M2)
    rank, det2, _ = _bareiss(M2)
    if rank < n:
        raise SingularMatrixError("matrix is singular over K")
    bound = D.ord + d2.ord - d1.ord
    return (det2.ord + n * d1.ord == D.ord + n * d2.ord
            and all(x.ord >= bound for row in N for x in row if x))


def scale_to_integral(theta: Mat) -> Mat:
    """Scale by T^{-m}, m the minimal entry valuation, to land in M_n(R)
    with at least one unit entry."""
    m = min((x.val for row in theta.rows for x in row), default=INF)
    if m == INF:
        raise ValueError("cannot scale the zero matrix to an integral one")
    return theta.scale(RatFunc.pi_power(theta.spec, -int(m)))


def is_ddl(theta: Mat) -> bool:
    """Diagonal dominant lower triangular: lower triangular, each diagonal
    entry a pure T-power, and in every row the diagonal valuation >= the
    valuation of every entry to its left (zero entries never dominate)."""
    n = theta.n
    for i in range(n):
        for j in range(i + 1, n):
            if not theta[i, j].is_zero():
                return False
    for i in range(n):
        d = theta[i, i]
        if d.is_zero() or d != RatFunc.pi_power(theta.spec, int(d.val)):
            return False
        for j in range(i):
            if theta[i, j].val > d.val:
                return False
    return True


def ddl_normalize(theta: Mat) -> Mat:
    """Normalize an invertible Theta to a DDL matrix giving the same order.

    Column operations only, each a right-multiplication by a unit of M_n(R):
    (a) swap a minimal-valuation pivot into place, (b) clear the row to the
    right of the pivot (the multipliers are integral by minimality of the
    pivot valuation), (c) add the diagonal's column into any column to its
    left it strictly dominates, pinning that entry's valuation to the
    diagonal's, (d) scale each column by a unit making the diagonal a pure
    T-power.  The product of these operations is the unit certificate
    Theta^{-1} * result.
    """
    n = theta.n
    spec = theta.spec
    cols = [[theta.rows[r][c] for r in range(n)] for c in range(n)]

    for k in range(n):
        best = None
        for c in range(k, n):
            v = cols[c][k].val
            if v != INF and (best is None or v < cols[best][k].val):
                best = c
        if best is None:
            raise SingularMatrixError("matrix is singular over K")
        if best != k:
            cols[k], cols[best] = cols[best], cols[k]
        pivot = cols[k][k]
        for c in range(k + 1, n):
            if cols[c][k].is_zero():
                continue
            mult = cols[c][k] / pivot
            cols[c] = [x - mult * y for x, y in zip(cols[c], cols[k])]

    for k in range(n):
        vk = cols[k][k].val
        for j in range(k):
            if cols[j][k].val > vk:
                cols[j] = [x + y for x, y in zip(cols[j], cols[k])]

    for k in range(n):
        d = cols[k][k]
        u = RatFunc.pi_power(spec, int(d.val)) / d
        cols[k] = [x * u for x in cols[k]]

    result = Mat([[cols[c][r] for c in range(n)] for r in range(n)])
    assert is_ddl(result), "normalization failed to reach DDL form"
    return result


def embedding_generators(embedding: Embedding) -> list[str]:
    """Render the embedded generators, one K-linear combination per column."""
    theta = embedding.theta
    return [" + ".join(_terms(theta, i, embedding.target_gens)) or "0" for i in range(theta.n)]


# -- special fibre: semilinear operator powers over F_q --

def special_fibre(A: Mat) -> FibreReport:
    """Reduce A mod T and classify the fibre via ranks of the powers of the
    semilinear operator F: N_m = Abar * Abar^(p) * ... * Abar^(p^(m-1)),
    computed on Abar as a matrix of constant polynomials."""
    res = A.is_integral()
    if not res:
        raise ValueError(f"special fibre requires an integral matrix: {res.witness}")
    n, spec = A.n, A.spec
    abar = [[x.residue() for x in row] for row in A.rows]
    ranks = []
    acc = twisted = [[Poly(spec, (c,)) for c in row] for row in abar]
    for m in range(1, n + 1):
        ranks.append(_bareiss([list(row) for row in acc])[0])
        if m < n:
            twisted = [[x.pth_power() for x in row] for row in twisted]
            acc = _matmul(acc, twisted, Poly.zero(spec))
    etale_rank = ranks[-1]
    return FibreReport(
        abar=tuple(tuple(row) for row in abar),
        fpower_ranks=tuple(ranks),
        etale_rank=etale_rank,
        connected=(etale_rank == 0),
        etale=(etale_rank == n),
    )
