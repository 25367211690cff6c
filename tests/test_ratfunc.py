import functools
import operator
import random
import time
import tracemalloc

import pytest

from hopforders.fields import FieldSpec
from hopforders.ratfunc import INF, MAX_TWIST_DEGREE, Poly, RatFunc, poly_gcd

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
    # a constant denominator goes: (1 + T)/2 over F_3 -> 2 + 2T, T/a over F_4 -> (1 + a)T
    for num, den, canonical in ((P(F3, 1, 1), P(F3, 2), P(F3, 2, 2)),
                                (Poly(F4, [F4.zero, F4.one]), Poly(F4, [F4.gen]),
                                 Poly(F4, [F4.zero, F4.element((1, 1))]))):
        x = RatFunc(num, den)
        assert x.den.is_one() and x.num == canonical
        assert x == RatFunc.from_poly(canonical)


def test_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        RatFunc(P(F2, 1), Poly.zero(F2))
    with pytest.raises(ZeroDivisionError, match="^polynomial division by zero$"):
        P(F3, 1, 1).divmod(Poly.zero(F3))
    with pytest.raises(ValueError, match="^numerator and denominator from different field specs$"):
        RatFunc(P(F2, 1), P(F3, 1, 1))


@pytest.mark.parametrize("spec, ext", [(F3, F9), (F2, F4)], ids=["F3-F9", "F2-F4"])
def test_poly_refuses_coefficients_of_another_field(spec, ext):
    msg = "^coefficient belongs to a different field spec$"
    for target, coeffs in ((spec, [ext.gen, ext.one]), (spec, [spec.one, ext.one]),
                           (ext, [ext.gen, spec.one])):
        with pytest.raises(ValueError, match=msg):
            Poly(target, coeffs)
    equal = FieldSpec(spec.p)           # specs compare by value
    assert equal is not spec and Poly(spec, [equal.one, equal.zero, equal.one]) == P(spec, 1, 0, 1)


@pytest.mark.parametrize("spec", [F2, F3, F4], ids=lambda s: f"F{s.q}")
def test_builtin_divmod(spec):
    rng = random.Random(28)
    for _ in range(50):
        a, b = rand_poly(rng, spec, 6), rand_poly(rng, spec, 3, nonzero=True)
        q, r = divmod(a, b)
        assert (q, r) == (a // b, a % b) == a.divmod(b)
        assert q * b + r == a and r.degree < b.degree
    with pytest.raises(ZeroDivisionError, match="^polynomial division by zero$"):
        divmod(rand_poly(rng, spec, 3), Poly.zero(spec))


def _schoolbook(x, y):
    """x * y summed term by term in FqElem arithmetic, with no shortcut."""
    spec = x.spec
    out = [spec.zero] * (len(x.codes) + len(y.codes))
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs):
            out[i + j] = out[i + j] + a * b
    return Poly(spec, out)


@pytest.mark.parametrize("spec", [F2, F3, F4, F9], ids=lambda s: f"F{s.q}")
def test_monomial_shortcuts_match_the_general_loop(spec):
    """A product with c T^m is a shift, a quotient by it a slice, and the
    twist over F_p a copy of the codes: each equals its term-by-term result."""
    rng = random.Random(f"monomial|{spec.q}")
    one = Poly.one(spec)
    units = [c for c in spec.elements() if c]
    for _ in range(40):
        x = rand_poly(rng, spec, 6)
        m = rng.randrange(5)
        for c in units:
            mono = Poly(spec, [spec.zero] * m + [c])
            assert x * mono == mono * x == _schoolbook(x, mono)
            assert x // mono == Poly(spec, [a / c for a in x.coeffs[m:]])
            assert x % mono == Poly(spec, x.coeffs[:m])
        twisted = [spec.zero] * (spec.p * len(x.codes))
        twisted[::spec.p] = [functools.reduce(operator.mul, [a] * spec.p) for a in x.coeffs]
        assert x.pth_power() == Poly(spec, twisted)
        if x:
            assert one * x is x and x * one == x
    zero = Poly.zero(spec)
    assert (zero * one).is_zero() and (one * zero).is_zero()


@pytest.mark.parametrize("spec", [F3, F5, F9], ids=lambda s: f"F{s.q}")
def test_odd_p_divmod_is_a_division(spec):
    """q * b + r = a with deg r < deg b, for divisors of any leading
    coefficient and dividends shorter or longer than them."""
    rng = random.Random(f"divmod|{spec.q}")
    for _ in range(200):
        a = rand_poly(rng, spec, rng.randrange(9))
        b = rand_poly(rng, spec, rng.randrange(1, 5), nonzero=True)
        q, r = a.divmod(b)
        assert _schoolbook(q, b) + r == a and r.degree < b.degree
        assert a // b == q and a % b == r


def test_zero_polynomial():
    for spec in (F2, F3, F4):
        zero = Poly.zero(spec)
        assert zero.ord == INF and zero.degree == -1
        assert zero.shift(3) == zero and zero.shift(3).is_zero()
        assert not zero == 0 and zero != 0 and P(spec, 1) != 1


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


def test_twist_degree_limit():
    """A twist of degree p * deg above MAX_TWIST_DEGREE is refused before it
    is built."""
    assert MAX_TWIST_DEGREE == 2 ** 16
    F = FieldSpec(65521)
    at_limit = Poly.monomial(F2, MAX_TWIST_DEGREE // 2)
    assert at_limit.pth_power() == Poly.monomial(F2, MAX_TWIST_DEGREE)
    for poly in (Poly.monomial(F2, MAX_TWIST_DEGREE // 2 + 1), Poly.monomial(F, 2)):
        with pytest.raises(ValueError, match="MAX_TWIST_DEGREE"):
            poly.pth_power()
    assert Poly.monomial(F, 1).pth_power().degree == 65521


def test_pi_power_limit():
    """A T-power past MAX_TWIST_DEGREE is refused before it is built, by
    RatFunc.pi_power, Poly.__pow__ and Poly.shift alike, at once and in
    little memory."""
    t = RatFunc.pi_power(F2, 1)
    assert RatFunc.pi_power(F2, MAX_TWIST_DEGREE).val == MAX_TWIST_DEGREE
    assert (t ** MAX_TWIST_DEGREE).val == MAX_TWIST_DEGREE
    assert Poly.one(F2).shift(MAX_TWIST_DEGREE).degree == MAX_TWIST_DEGREE
    for m in (MAX_TWIST_DEGREE + 1, -MAX_TWIST_DEGREE - 1):
        with pytest.raises(ValueError, match="MAX_TWIST_DEGREE"):
            RatFunc.pi_power(F2, m)
    for call in (lambda: t ** 10 ** 8, lambda: Poly.one(F2).shift(10 ** 8),
                 lambda: t ** (MAX_TWIST_DEGREE + 1), lambda: P(F2, 1, 1) ** 10 ** 6):
        tracemalloc.start()
        start = time.perf_counter()
        with pytest.raises(ValueError, match="MAX_TWIST_DEGREE"):
            call()
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert seconds < 0.5 and peak < 16 * 2 ** 20, (seconds, peak)


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
    # a zero argument gives the other one, made monic
    f = P(F3, 1, 2)
    assert poly_gcd(Poly.zero(F3), f) == poly_gcd(f, Poly.zero(F3)) == P(F3, 2, 1)


def test_canonical_equality_random():
    rng = random.Random(7)
    for spec in (F2, F3, F5, F4):
        for _ in range(100):
            x = rand_ratfunc(rng, spec)
            y = rand_ratfunc(rng, spec)
            assert ((x - y).is_zero()) == (x == y)
            assert x - y == x + (-y)
            assert x - 1 == x + RatFunc.constant(spec, -1) and 1 - x == -x + 1
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
    assert repr(P(F3, 0, 2, 1)) == "Poly(2*T + T^2)"
    assert repr(x) == "RatFunc(T^3/(1 + T))"


def test_equality_with_an_int():
    assert RatFunc.constant(F3, 2) == 2 and RatFunc.constant(F3, 2) == -1
    assert RatFunc.zero(F5) == 0 and pi(F5) != 0 and RatFunc.one(F4) == 1
