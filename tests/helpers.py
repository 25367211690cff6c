"""Shared builders for randomized tests (seeded random module, no global state)."""

import itertools
import operator
from functools import reduce

from hopforders.fields import FieldSpec
from hopforders.matrix import Mat
from hopforders.ratfunc import Poly, RatFunc

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)
F4 = FieldSpec(2, 2, (1, 1, 1))       # F_2[a]/(a^2+a+1)
F9 = FieldSpec(3, 2, (1, 0, 1))       # F_3[a]/(a^2+1)
F8 = FieldSpec(2, 3, (1, 1, 0, 1))    # F_2[a]/(a^3+a+1)
F16 = FieldSpec(2, 4, (1, 1, 0, 0, 1))  # F_2[a]/(a^4+a+1)
F25 = FieldSpec(5, 2, (2, 1, 1))      # F_5[a]/(a^2+a+2)
F27 = FieldSpec(3, 3, (1, 2, 0, 1))   # F_3[a]/(a^3+2a+1)


def pi(spec, m=1):
    return RatFunc.pi_power(spec, m)


def rand_fq(rng, spec):
    return spec.element([rng.randrange(spec.p) for _ in range(spec.k)])


def rand_poly(rng, spec, max_deg=3, nonzero=False):
    n = rng.randrange(max_deg + 1) + 1
    p = Poly(spec, [rand_fq(rng, spec) for _ in range(n)])
    while nonzero and p.is_zero():
        p = Poly(spec, [rand_fq(rng, spec) for _ in range(n)])
    return p


def rand_ratfunc(rng, spec, max_deg=3):
    return RatFunc(rand_poly(rng, spec, max_deg), rand_poly(rng, spec, max_deg, nonzero=True))


def rand_nonzero_ratfunc(rng, spec, max_deg=3):
    x = rand_ratfunc(rng, spec, max_deg)
    while x.is_zero():
        x = rand_ratfunc(rng, spec, max_deg)
    return x


def rand_integral(rng, spec, max_deg=3):
    """Random element of R: polynomial numerator over a unit denominator."""
    den = rand_poly(rng, spec, max_deg, nonzero=True)
    if not den.constant():
        den = den + Poly.one(spec)
    return RatFunc(rand_poly(rng, spec, max_deg), den)


def rand_unit_scalar(rng, spec, max_deg=2):
    """Random unit of R (valuation zero)."""
    num = rand_poly(rng, spec, max_deg)
    if not num.constant():
        num = num + Poly.one(spec)
    den = rand_poly(rng, spec, max_deg, nonzero=True)
    if not den.constant():
        den = den + Poly.one(spec)
    return RatFunc(num, den)


def rand_mat(rng, spec, n, max_deg=2):
    return Mat([[rand_ratfunc(rng, spec, max_deg) for _ in range(n)] for _ in range(n)])


def rand_invertible(rng, spec, n, max_deg=2):
    m = rand_mat(rng, spec, n, max_deg)
    while m.det().is_zero():
        m = rand_mat(rng, spec, n, max_deg)
    return m


def rand_integral_mat(rng, spec, n, max_deg=2):
    return Mat([[rand_integral(rng, spec, max_deg) for _ in range(n)] for _ in range(n)])


def rand_unit_matrix(rng, spec, n, max_deg=2):
    """Random element of M_n(R)^x: unit-lower x unit-upper x unit-diagonal."""
    zero = RatFunc.zero(spec)
    one = RatFunc.one(spec)
    lower = [[one if i == j else (rand_integral(rng, spec, max_deg) if i > j else zero)
              for j in range(n)] for i in range(n)]
    upper = [[one if i == j else (rand_integral(rng, spec, max_deg) if i < j else zero)
              for j in range(n)] for i in range(n)]
    diag = Mat.diag([rand_unit_scalar(rng, spec, max_deg) for _ in range(n)])
    return Mat(lower) @ Mat(upper) @ diag


def worked_example(spec):
    """The 3x3 construction used across tests: B, Theta, and the exact A."""
    from hopforders.ratfunc import RatFunc
    one, zero = RatFunc.one(spec), RatFunc.zero(spec)
    p = spec.p

    def t(m):
        return pi(spec, m)

    B = Mat([[zero, t(2), zero], [t(3), zero, zero], [zero, zero, t(4)]])
    theta = Mat([[t(1), zero, zero], [one, one, zero], [one, zero, t(1)]])
    A = Mat([
        [t(1), t(1), zero],
        [t(p + 3) - t(1), -t(1), zero],
        [t(3) - one, -one, t(p + 3)],
    ])
    return B, theta, A


def brute_force_points(family, spec, i_values, j_values, depth, pred_fn=None):
    """Reference sweep deciding every point on the object path.

    Returns (record, oracle verdict, predicate verdict or None) for each grid
    point in sweep order: theta rows 1..q^depth - 1 of every (i, j) cell, then
    its T^j record.
    """
    from hopforders.families import (Family, OrderRecord, _record_from_row,
                                     oracle_is_order)
    fq = list(spec.elements())
    points = []
    for i in i_values:
        for j in j_values:
            if family is Family.ZP_SQUARED and (i < 0 or j < 0):
                continue
            recs = [_record_from_row(family, spec, fq, row, i, j, depth)
                    for row in range(1, spec.q ** depth)]
            recs.append(OrderRecord(family, spec.p, i, j, pi(spec, j)))
            points += [(r, oracle_is_order(r), None if pred_fn is None else pred_fn(r))
                       for r in recs]
    return points


# -- reference linear algebra, independent of the elimination in hopforders --

def leibniz_det(rows, zero):
    """Determinant as the signed sum over all permutations (any field)."""
    n = len(rows)
    total = zero
    for perm in itertools.permutations(range(n)):
        term = reduce(operator.mul, (rows[i][perm[i]] for i in range(n)))
        odd = sum(perm[a] > perm[b] for a, b in itertools.combinations(range(n), 2)) % 2
        total = total - term if odd else total + term
    return total


def minor_rank(rows, zero):
    """Rank as the size of the largest nonzero minor."""
    n = len(rows)
    for k in range(n, 0, -1):
        for rs in itertools.combinations(range(n), k):
            for cs in itertools.combinations(range(n), k):
                if leibniz_det([[rows[r][c] for c in cs] for r in rs], zero):
                    return k
    return 0


def cofactor_inverse(rows, zero):
    """Inverse of an n x n matrix, n >= 2, as its adjugate over its
    Leibniz determinant."""
    n = len(rows)
    det = leibniz_det(rows, zero)

    def cofactor(i, j):
        minor = [[rows[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
        d = leibniz_det(minor, zero)
        return -d if (i + j) % 2 else d

    return [[cofactor(j, i) / det for j in range(n)] for i in range(n)]


def deficient(rows, zero):
    """Replace the last row by the sum of the others: rank < n."""
    return rows[:-1] + [[reduce(operator.add, col, zero) for col in zip(*rows[:-1])]]


# -- reference F_q arithmetic on digit tuples, independent of the code tables --

def _padded(spec, digits):
    return tuple(digits) + (0,) * (spec.k - len(digits))


def digit_add(spec, x, y):
    return tuple((a + b) % spec.p for a, b in zip(x, y))


def digit_sub(spec, x, y):
    return tuple((a - b) % spec.p for a, b in zip(x, y))


def digit_mul(spec, x, y):
    """Schoolbook product of the digit polynomials, then the top terms
    reduced one at a time by the monic modulus."""
    p, k, m = spec.p, spec.k, spec.modulus
    prod = [0] * (2 * k - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            prod[i + j] = (prod[i + j] + a * b) % p
    for top in range(2 * k - 2, k - 1, -1):
        c = prod[top]
        for t in range(k + 1):
            prod[top - k + t] = (prod[top - k + t] - c * m[t]) % p
    return tuple(prod[:k])


def digit_frobenius(spec, x):
    out = _padded(spec, [1])
    for _ in range(spec.p):
        out = digit_mul(spec, out, x)
    return out


def digit_inverse(spec, x):
    """The y with x * y = 1, by search over all q digit tuples."""
    one = _padded(spec, [1])
    return next(el.coeffs for el in spec.elements() if digit_mul(spec, x, el.coeffs) == one)


# -- reference integrality test, independent of the elimination in hopforders --

def _plain_matmul(X, Y, zero):
    n = len(X)
    return [[reduce(operator.add, (X[i][t] * Y[t][j] for t in range(n)), zero)
             for j in range(n)] for i in range(n)]


def reference_order(B, theta):
    """A = cofactor_inverse(Theta) * B * Theta^(p) by RatFunc arithmetic: A when
    integral, else the first row-major offender (row, col, valuation, str(entry))."""
    zero = RatFunc.zero(theta.spec)
    inv = cofactor_inverse([list(r) for r in theta.rows], zero)
    A = Mat(_plain_matmul(_plain_matmul(inv, B.rows, zero), theta.twist().rows, zero))
    res = A.is_integral()
    if res:
        return A
    w = res.witness
    return (w.row, w.col, w.valuation, str(w.entry))
