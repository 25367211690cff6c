import random

import pytest

from hopforders.matrix import Mat, SingularMatrixError, _bareiss, _solve
from hopforders.ratfunc import Poly, RatFunc, poly_gcd

from helpers import (F2, F3, F4, F5, F9, cofactor_inverse, deficient, leibniz_det,
                     pi, rand_integral_mat, rand_invertible, rand_mat, rand_poly, rand_ratfunc,
                     rand_unit_matrix)


def test_mul_identity_and_zero():
    rng = random.Random(1)
    x = rand_mat(rng, F3, 3)
    assert x @ Mat.identity(F3, 3) == x
    assert Mat.identity(F3, 3) @ x == x
    assert x @ Mat.zeros(F3, 3) == Mat.zeros(F3, 3)
    y = rand_mat(rng, F3, 3)
    assert x - y == x + (-y)
    assert x - x == Mat.zeros(F3, 3)


def test_mul_hand_example():
    one, zero, t = RatFunc.one(F2), RatFunc.zero(F2), pi(F2)
    x = Mat([[t, zero], [one, t]])
    y = Mat.diag([t, t])
    assert x @ y == Mat([[pi(F2, 2), zero], [t, pi(F2, 2)]])


def test_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        Mat.identity(F2, 2) @ Mat.identity(F2, 3)


def test_constructor_checks_and_protocols():
    one, zero = RatFunc.one(F2), RatFunc.zero(F2)
    for rows in ([], [[one, zero], [one]]):
        with pytest.raises(ValueError, match="^matrix must be square and nonempty$"):
            Mat(rows)
    with pytest.raises(ValueError, match="^matrix entries must share one field spec$"):
        Mat([[one, zero], [zero, RatFunc.one(F3)]])
    m = Mat([[one, pi(F2)], [zero, one]])
    assert m != 0 and not m == 0
    assert hash(m) == hash(Mat([[one, pi(F2)], [zero, one]]))
    assert repr(m) == "Mat([1,T;0,1])"


def test_det_examples():
    assert Mat.identity(F3, 3).det() == RatFunc.one(F3)
    theta = RatFunc.one(F2) + pi(F2)     # any nonzero theta
    m = Mat([[pi(F2), RatFunc.zero(F2)], [theta, pi(F2, 2)]])
    assert m.det() == pi(F2, 3)


def test_det_worked_theta():
    # [[T,0,0],[1,1,0],[1,0,T]] has determinant T^2
    one, zero, t = RatFunc.one(F5), RatFunc.zero(F5), pi(F5)
    theta = Mat([[t, zero, zero], [one, one, zero], [one, zero, t]])
    assert theta.det() == pi(F5, 2)


def test_inv_examples():
    assert Mat.identity(F3, 2).inv() == Mat.identity(F3, 2)
    zero = RatFunc.zero(F3)
    theta = RatFunc.constant(F3, 2)
    m = Mat([[pi(F3), zero], [theta, pi(F3, 2)]])
    expected = Mat([[pi(F3, -1), zero], [-theta * pi(F3, -3), pi(F3, -2)]])
    assert m.inv() == expected
    d = Mat.diag([pi(F3, 4), pi(F3, -2)])
    assert d.inv() == Mat.diag([pi(F3, -4), pi(F3, 2)])


def test_inv_singular():
    with pytest.raises(SingularMatrixError):
        Mat.zeros(F2, 2).inv()
    one = RatFunc.one(F2)
    with pytest.raises(SingularMatrixError):
        Mat([[one, one], [one, one]]).inv()


def test_twist_examples():
    assert Mat.identity(F5, 3).twist() == Mat.identity(F5, 3)
    zero, one = RatFunc.zero(F3), RatFunc.one(F3)
    m = Mat([[pi(F3), zero], [one + pi(F3), pi(F3, 2)]])
    p = F3.p
    assert m.twist() == Mat([[pi(F3, p), zero], [one + pi(F3, p), pi(F3, 2 * p)]])


def test_twist_ddl_shape():
    # [[T^i,0],[theta,T^j]] twists to [[T^(pi),0],[theta^p,T^(pj)]]
    i, j = 2, 1
    theta = RatFunc.one(F2) + pi(F2)
    m = Mat([[pi(F2, i), RatFunc.zero(F2)], [theta, pi(F2, j)]])
    tw = m.twist()
    assert tw[0, 0] == pi(F2, 2 * i)
    assert tw[1, 0] == theta.pth_power()
    assert tw[1, 1] == pi(F2, 2 * j)


def test_is_integral_witness():
    assert Mat.identity(F2, 3).is_integral()
    m = Mat([[pi(F2, -1), RatFunc.zero(F2)], [RatFunc.zero(F2), RatFunc.one(F2)]])
    res = m.is_integral()
    assert not res
    assert (res.witness.row, res.witness.col, res.witness.valuation) == (1, 1, -1)


def test_is_unit():
    assert Mat.identity(F3, 2).is_unit()
    assert not Mat.diag([pi(F3), RatFunc.one(F3)]).is_unit()
    zero, one = RatFunc.zero(F3), RatFunc.one(F3)
    assert Mat([[one, zero], [pi(F3, 3), one]]).is_unit()
    assert not Mat([[pi(F3, -1), zero], [zero, pi(F3)]]).is_unit()


@pytest.mark.parametrize("spec", [F2, F3, F4, F9], ids=["F2", "F3", "F4", "F9"])
def test_is_unit_matches_det_reference(spec):
    rng = random.Random(f"is-unit-{spec.q}")
    zero = RatFunc.zero(spec)
    seen = set()
    for trial in range(24):
        n = 2 + trial % 2
        rows = [list(r) for r in rand_integral_mat(rng, spec, n, 1).rows]
        if trial % 4 == 0:
            rows = deficient(rows, zero)
        elif trial % 4 == 1:
            rows = [list(r) for r in rand_unit_matrix(rng, spec, n, 1).rows]
        elif trial % 8 == 2:
            rows[0][0] = rows[0][0] + pi(spec, -1)
        expected = bool(Mat(rows).is_integral()) and leibniz_det(rows, zero).val == 0
        assert Mat(rows).is_unit() == expected
        seen.add(expected)
    assert seen == {True, False}


def test_inverse_property_random():
    rng = random.Random(23)
    for spec, n in [(F2, 2), (F3, 2), (F3, 3), (F5, 2)]:
        for _ in range(25):
            m = rand_invertible(rng, spec, n)
            ident = Mat.identity(spec, n)
            assert m @ m.inv() == ident
            assert m.inv() @ m == ident


def test_det_multiplicative_and_twist_laws():
    rng = random.Random(29)
    for spec in (F2, F3):
        for _ in range(25):
            x = rand_mat(rng, spec, 2)
            y = rand_mat(rng, spec, 2)
            assert (x @ y).det() == x.det() * y.det()
            assert x.twist().det() == x.det().pth_power()
            assert (x @ y).twist() == x.twist() @ y.twist()


def test_twist_commutes_with_inverse():
    rng = random.Random(31)
    for _ in range(25):
        m = rand_invertible(rng, F3, 2)
        assert m.inv().twist() == m.twist().inv()


def test_unit_matrix_properties():
    rng = random.Random(37)
    for _ in range(25):
        u = rand_unit_matrix(rng, F3, 3)
        assert u.is_unit()
        assert u.inv().is_unit()


def test_str_form():
    m = Mat([[pi(F2), RatFunc.zero(F2)], [RatFunc.one(F2) + pi(F2), pi(F2, 2)]])
    assert str(m) == "[T,0;1 + T,T^2]"


# -- the one elimination routine against the Leibniz references --

@pytest.mark.parametrize("spec", [F2, F3, F4, F9])
def test_det_and_inv_match_leibniz_references(spec):
    rng = random.Random(f"det-inv-{spec.q}")
    zero = RatFunc.zero(spec)
    for trial in range(12):
        rows = [[rand_ratfunc(rng, spec, 1) for _ in range(3)] for _ in range(3)]
        if trial % 3 == 0:
            rows = deficient(rows, zero)
        m = Mat(rows)
        det = leibniz_det(rows, zero)
        assert m.det() == det
        if det.is_zero():
            with pytest.raises(SingularMatrixError):
                m.inv()
        else:
            assert m.inv() == Mat(cofactor_inverse(rows, zero))
    # every rank-deficient pattern: a zero row, a repeated row, a zero column
    one = RatFunc.one(spec)
    for rows in ([[one, pi(spec), zero], [zero] * 3, [pi(spec), one, one]],
                 [[one, pi(spec), one], [one, pi(spec), one], [zero, one, pi(spec)]],
                 [[zero, one, pi(spec)], [zero, pi(spec), one], [zero, one, one]]):
        assert Mat(rows).det().is_zero() and leibniz_det(rows, zero).is_zero()
        with pytest.raises(SingularMatrixError):
            Mat(rows).inv()


def test_det_sign_follows_row_swaps():
    zero, one = RatFunc.zero(F3), RatFunc.one(F3)
    t = pi(F3)
    # one swap: odd; two swaps (a 3-cycle): even
    rows = [[zero, one, zero], [t, zero, zero], [zero, zero, one]]
    assert Mat(rows).det() == leibniz_det(rows, zero) == -t
    rows = [[zero, t, zero], [zero, zero, one], [one, zero, zero]]
    assert Mat(rows).det() == leibniz_det(rows, zero) == t


@pytest.mark.parametrize("spec", [F2, F3, F4, F9])
def test_closed_2x2_solve_equals_the_elimination(spec):
    """_solve's closed 2x2 adjugate against _bareiss on [M | Y]: N and det
    agree up to one common sign, and a singular M raises the same error."""
    rng = random.Random(f"solve-2x2-{spec.q}")
    zero = Poly.zero(spec)

    def entry():
        return zero if rng.random() < 0.25 else rand_poly(rng, spec, 3)

    swaps = singular = 0
    for trial in range(60):
        M = [[entry(), entry()], [entry(), entry()]]
        if trial % 6 == 0:
            M[0][0] = zero                              # Bareiss swaps rows
        elif trial % 6 == 1:
            c = rand_poly(rng, spec, 1)
            M[1] = [c * x for x in M[0]]                # singular
        Y = [[entry() for _ in range(trial % 5)] for _ in range(2)]
        work = [list(m) + list(y) for m, y in zip(M, Y)]
        rank, det, swapped = _bareiss(work)
        if rank < 2:
            singular += 1
            with pytest.raises(SingularMatrixError, match="^matrix is singular over K$"):
                _solve(M, Y)
            continue
        N, D = _solve(M, Y)
        s = 1 if D == det else -1
        assert D == (det if s == 1 else -det)
        assert N == [[x if s == 1 else -x for x in row[2:]] for row in work]
        swaps += swapped
    assert swaps and singular
    for trial in range(20):
        x = rand_invertible(rng, spec, 2)
        if trial % 2 and x[0, 1] and x[1, 0]:      # a zero (1,1) entry: invertible still
            x = Mat([[RatFunc.zero(spec), x[0, 1]], [x[1, 0], x[1, 1]]])
        assert x @ x.inv() == Mat.identity(spec, 2)


@pytest.mark.parametrize("spec", [F2, F3, F4, F9], ids=["F2", "F3", "F4", "F9"])
def test_polynomial_form_contract(spec):
    """Mat._polynomial_form returns (M, d): d the monic lcm of the entry
    denominators, folded here as a * b / gcd(a, b), and M_ij = num_ij *
    (d / den_ij), so that M_ij / d is entry (i, j).  The denominators mix 1,
    distinct and repeated T-powers, and general ones with and without a
    factor of T, each drawn with repetition."""
    rng = random.Random(f"polynomial-form-{spec.q}")
    one = Poly.one(spec)

    def general():
        g = rand_poly(rng, spec, 3, nonzero=True).monic()
        while g.degree < 1:
            g = rand_poly(rng, spec, 3, nonzero=True).monic()
        return g if g.codes[0] else g + one     # no factor of T

    for trial in range(36):
        n = trial % 3 + 1
        t_powers = [Poly.monomial(spec, e) for e in rng.sample(range(1, 5), 2)]
        dens = [one, *t_powers, general(), general() * Poly.monomial(spec, 2)]
        m = Mat([[RatFunc(rand_poly(rng, spec, 3), rng.choice(dens)) for _ in range(n)]
                 for _ in range(n)])
        M, d = m._polynomial_form()
        ref = one
        for row in m.rows:
            for x in row:
                ref = ref * x.den // poly_gcd(ref, x.den)
        assert d.is_monic() and d == ref
        for row, m_row in zip(m.rows, M):
            for x, y in zip(row, m_row):
                assert (d % x.den).is_zero()
                assert y == x.num * (d // x.den)
                assert RatFunc(y, d) == x
