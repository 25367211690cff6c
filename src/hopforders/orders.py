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

import operator
from dataclasses import dataclass

from .fields import FqElem
from .matrix import Mat, SingularMatrixError, Witness, _adjugate, _bareiss, _matmul
from .ratfunc import INF, Poly, RatFunc


class NotIntegralError(Exception):
    """A = Theta^{-1} B Theta^(p) has a non-integral entry."""

    def __init__(self, witness: Witness):
        super().__init__(witness)
        self.witness = witness

    def __str__(self):
        return f"resulting matrix is not integral: {self.witness}"


def _term(coef: RatFunc, name: str) -> str:
    """Format coef*name, dropping unit coefficients, parenthesizing sums."""
    if coef.is_one():
        return name
    cs = str(coef)
    if " + " in cs or "/" in cs:
        cs = f"({cs})"
    return f"{cs}*{name}"


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
        rels = []
        for i, g in enumerate(self.gens):
            rel = f"{g}^{p}"
            for j, h in enumerate(self.gens):
                c = self.A[j, i]
                if not c.is_zero():
                    rel += f" - {_term(c, h)}"
            rels.append(rel)
        return rels

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


def presentation_from_matrix(A: Mat, gens: tuple[str, ...] | None = None) -> Presentation:
    """Presentation with relations u_i^p - sum_j a_{j,i} u_j (column-indexed)."""
    res = A.is_integral()
    if not res:
        raise ValueError(f"presentation requires an integral matrix: {res.witness}")
    if gens is None:
        gens = _default_gens("u", A.n)
    if len(gens) != A.n:
        raise ValueError("need one generator name per matrix column")
    return Presentation(A, tuple(gens))


def order_from_theta(B: Mat, theta: Mat) -> OrderResult:
    """Construct the order determined by Theta inside the algebra with matrix B.

    Computes A = Theta^{-1} B Theta^(p).  Succeeds iff A is integral; raises
    NotIntegralError carrying the first offending entry otherwise, and
    SingularMatrixError for non-invertible Theta.

    With Theta = M / d and B = B' / b over F_q[T], A = N / D for
    N = adj(M) B' M^(p) and D = det M * b * d^(p-1), so A is integral iff
    every nonzero N_ij has ord(N_ij) >= ord(D); no division in K happens
    before the verdict.
    """
    res = B.is_integral()
    if not res:
        raise ValueError(f"B must be integral: {res.witness}")
    if B.n != theta.n or B.spec != theta.spec:
        raise ValueError("B and Theta must have equal size over one field spec")
    M, d = theta._polynomial_form()
    Bm, b = B._polynomial_form()
    adj, det = _adjugate(M)
    zero = Poly.zero(theta.spec)
    N = _matmul(_matmul(adj, Bm, zero), [[x.pth_power() for x in row] for row in M], zero)
    D = det * b * d ** (theta.spec.p - 1)
    ord_D = D.ord
    for i, row in enumerate(N):
        for j, x in enumerate(row):
            if x and x.ord < ord_D:
                entry = RatFunc(x, D)
                raise NotIntegralError(Witness(i + 1, j + 1, entry.val, entry))
    A = Mat([[RatFunc(x, D) for x in row] for row in N])
    n = A.n
    embedding = Embedding(theta, _default_gens("u", n), _default_gens("t", n))
    return OrderResult(A, embedding, presentation_from_matrix(A))


def verify_twisted_equation(theta: Mat, A: Mat, B: Mat, p: int | None = None) -> bool:
    """Exact check of Theta*A = B*Theta^(p)."""
    if not (theta.n == A.n == B.n):
        raise ValueError("dimension mismatch")
    return (theta @ A) == (B @ theta.twist(p))


def same_order(theta1: Mat, theta2: Mat) -> bool:
    """Whether two embeddings give the same order: U = Theta^{-1}Theta' in
    M_n(R)^x, i.e. U integral with det U of valuation zero."""
    U = theta1.inv() @ theta2
    d = U.det()
    if d.is_zero():
        raise SingularMatrixError("matrix is singular over K")
    return bool(U.is_integral()) and d.val == 0


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
    out = []
    for i in range(theta.n):
        terms = []
        for j, name in enumerate(embedding.target_gens):
            c = theta[j, i]
            if not c.is_zero():
                terms.append(_term(c, name))
        out.append(" + ".join(terms) if terms else "0")
    return out


# -- special fibre: semilinear operator powers over F_q --

def _fq_frobenius(X):
    return [[c.frobenius() for c in row] for row in X]


def special_fibre(A: Mat) -> FibreReport:
    """Reduce A mod T and classify the fibre via ranks of the powers of the
    semilinear operator F: N_m = Abar * Abar^(p) * ... * Abar^(p^(m-1))."""
    res = A.is_integral()
    if not res:
        raise ValueError(f"special fibre requires an integral matrix: {res.witness}")
    n = A.n
    zero = A.spec.zero
    abar = [[x.residue() for x in row] for row in A.rows]
    ranks = []
    acc = abar
    twisted = abar
    for m in range(1, n + 1):
        ranks.append(_bareiss([list(row) for row in acc], operator.truediv)[0])
        if m < n:
            twisted = _fq_frobenius(twisted)
            acc = _matmul(acc, twisted, zero)
    etale_rank = ranks[-1]
    return FibreReport(
        abar=tuple(tuple(row) for row in abar),
        fpower_ranks=tuple(ranks),
        etale_rank=etale_rank,
        connected=(etale_rank == 0),
        etale=(etale_rank == n),
    )
