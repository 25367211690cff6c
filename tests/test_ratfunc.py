import random

import pytest

from hopforders.ratfunc import INF, Poly, RatFunc, poly_gcd

from helpers import (F2, F3, F4, F5, F9, pi, rand_nonzero_ratfunc, rand_poly,
                     rand_ratfunc)


def P(spec, *ints):
    return Poly.from_ints(spec, ints)


def test_make_cancels_pi():
    # (T^2 + T^3) / T -> T + T^2
    x = RatFunc(P(F2, 0, 0, 1, 1), P(F2, 0, 1))
    assert x == RatFunc.from_poly(P(F2, 0, 1, 1))
    assert x.val == 1


def test_make_polynomial_gcd():
    # (T^2 - 1)/(T - 1) over F_3 -> T + 1
    x = RatFunc(P(F3, -1, 0, 1), P(F3, -1, 1))
    assert x == RatFunc.from_poly(P(F3, 1, 1))
    assert x.val == 0


def test_make_zero():
    x = RatFunc(Poly.zero(F2), P(F2, 1, 1))
    assert x.is_zero()
    assert x.val == INF
    assert x.den.is_one()


def test_make_monic_denominator():
    # 1/(2T) over F_3 -> 2/T
    x = RatFunc(P(F3, 1), P(F3, 0, 2))
    assert x.den == P(F3, 0, 1)
    assert x.num == P(F3, 2)


def test_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        RatFunc(P(F2, 1), Poly.zero(F2))


def test_valuations():
    assert (pi(F2, 3) / (RatFunc.one(F2) + pi(F2))).val == 3
    assert RatFunc(P(F5, 0, 1, 1), P(F5, 0, 0, 0, 0, 0, 1)).val == -4
    assert RatFunc.one(F3).val == 0
    assert pi(F2, -2).val == -2


def test_is_integral():
    assert (RatFunc.one(F2) / (RatFunc.one(F2) + pi(F2))).is_integral()
    assert not pi(F2, -1).is_integral()
    x = RatFunc(P(F3, 1, 0, 1), P(F3, 0, 0, 1))   # (1 + T^2)/T^2
    assert x.val == -2 and not x.is_integral()


def test_pth_power_freshman():
    x = RatFunc.one(F2) + pi(F2)
    assert x.pth_power() == x * x
    assert x.pth_power() == RatFunc.from_poly(P(F2, 1, 0, 1))


def test_pth_power_monomial():
    for spec in (F2, F3, F5):
        assert pi(spec, -1).pth_power() == pi(spec, -spec.p)
        assert pi(spec, -1).pth_power().val == -spec.p


def test_pth_power_coefficient_frobenius():
    # (a + T)^2 over F_4 = a^2 + T^2 = (a+1) + T^2
    a = F4.gen
    x = RatFunc.from_poly(Poly(F4, (a, F4.one)))
    expected = RatFunc.from_poly(Poly(F4, (a * a, F4.zero, F4.one)))
    assert x.pth_power() == expected
    assert x.pth_power().num.constant() == F4.element((1, 1))


def test_residue():
    # T^3 - 1 -> -1
    x = RatFunc.from_poly(P(F3, -1, 0, 0, 1))
    assert x.residue() == F3.element(-1)
    # T^(p+3) - T -> 0
    p = F3.p
    y = pi(F3, p + 3) - pi(F3, 1)
    assert y.residue() == F3.zero
    # 1/(1 + T) -> 1
    z = RatFunc.one(F2) / (RatFunc.one(F2) + pi(F2))
    assert z.residue() == F2.one


def test_residue_requires_integral():
    with pytest.raises(ValueError):
        pi(F2, -1).residue()


def test_poly_gcd_monic():
    g = poly_gcd(P(F3, -1, 0, 1), P(F3, -1, 1))
    assert g == P(F3, -1, 1) or g == P(F3, 2, 1)
    assert g.is_monic()


def test_canonical_equality_random():
    rng = random.Random(7)
    for spec in (F2, F3, F5, F4):
        for _ in range(100):
            x = rand_ratfunc(rng, spec)
            y = rand_ratfunc(rng, spec)
            assert ((x - y).is_zero()) == (x == y)
            if x == y:
                assert x.num == y.num and x.den == y.den


def test_ultrametric_random():
    rng = random.Random(11)
    for spec in (F2, F3, F5):
        for _ in range(200):
            x = rand_ratfunc(rng, spec)
            y = rand_ratfunc(rng, spec)
            assert (x + y).val >= min(x.val, y.val)
            if x.val != y.val:
                assert (x + y).val == min(x.val, y.val)
            assert (x * y).val == x.val + y.val
            assert x.is_integral() == (x.val >= 0)


def test_pth_power_is_ring_homomorphism():
    rng = random.Random(13)
    for spec in (F2, F3, F4):
        for _ in range(100):
            x = rand_ratfunc(rng, spec)
            y = rand_ratfunc(rng, spec)
            assert (x + y).pth_power() == x.pth_power() + y.pth_power()
            assert (x * y).pth_power() == x.pth_power() * y.pth_power()
            assert x.pth_power() == x ** spec.p
            assert x.pth_power().val == (spec.p * x.val if not x.is_zero() else INF)


@pytest.mark.parametrize("spec", [F2, F3, F4, F9], ids=lambda s: f"F{s.q}")
def test_poly_pow_matches_repeated_multiplication(spec):
    rng = random.Random(f"poly_pow{spec.q}")
    for _ in range(30):
        x = rand_poly(rng, spec)
        m = rand_poly(rng, spec, nonzero=True) + Poly.monomial(spec, 4)
        ref = Poly.one(spec)
        for e in range(8):
            assert x ** e == ref
            assert pow(x, e, m) == ref % m
            ref = ref * x
    with pytest.raises(ValueError):
        P(spec, 1, 1) ** -1


@pytest.mark.parametrize("spec", [F2, F3, F4, F9], ids=lambda s: f"F{s.q}")
def test_ratfunc_pow_matches_repeated_multiplication(spec):
    rng = random.Random(f"ratfunc_pow{spec.q}")
    one = RatFunc.one(spec)
    for _ in range(30):
        x = rand_nonzero_ratfunc(rng, spec)
        for e in range(-3, 7):
            ref = one
            for _ in range(abs(e)):
                ref = ref * x
            assert x ** e == (ref if e >= 0 else one / ref)
    zero = RatFunc.zero(spec)
    assert zero ** 0 == one
    assert all(zero ** e == zero for e in range(1, 7))
    with pytest.raises(ZeroDivisionError):
        zero ** -1


def test_inverse_and_division():
    rng = random.Random(17)
    for _ in range(100):
        x = rand_nonzero_ratfunc(rng, F3)
        assert x * x.inverse() == RatFunc.one(F3)
        y = rand_ratfunc(rng, F3)
        assert (y / x) * x == y
    with pytest.raises(ZeroDivisionError):
        RatFunc.zero(F3).inverse()


def test_str_forms():
    assert str(pi(F2, 1)) == "T"
    assert str(pi(F2, -2)) == "1/T^2"
    assert str(RatFunc.from_poly(P(F3, 0, 2, 1))) == "2*T + T^2"
    x = RatFunc(P(F2, 0, 0, 0, 1), P(F2, 1, 1))
    assert str(x) == "T^3/(1 + T)"
    assert str(RatFunc.zero(F5)) == "0"
