"""The operators FqElem and RatFunc share (fields._FIELD_OPS) and the one
polynomial printer (fields._poly_text)."""

import operator
import random

import pytest

from hopforders.fields import FqElem
from hopforders.ratfunc import Poly, RatFunc

from helpers import F2, F3, F4, F8, F9, pi, rand_nonzero_ratfunc

SPECS = [F2, F3, F4, F9]
OTHER_SPEC = {F2: F3, F3: F2, F4: F9, F9: F4}
DERIVED = ("__sub__", "__rsub__", "__truediv__", "__rtruediv__", "__pow__")
spec_param = pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"F{s.q}")
kind_param = pytest.mark.parametrize("kind", [FqElem, RatFunc], ids=lambda k: k.__name__)


def constant(kind, spec, c):
    return spec.element(c) if kind is FqElem else RatFunc.constant(spec, c)


def nonzero_samples(kind, spec):
    """Every nonzero element of F_q, or a dozen seeded nonzero elements of K."""
    if kind is FqElem:
        return [x for x in spec.elements() if x]
    rng = random.Random(spec.q)
    return [rand_nonzero_ratfunc(rng, spec) for _ in range(12)]


@spec_param
@kind_param
def test_derived_operators_match_their_definitions(kind, spec):
    for x in nonzero_samples(kind, spec):
        for c in (-1, 0, 1, 2):
            assert c - x == constant(kind, spec, c) + (-x)
            assert x - c == x + constant(kind, spec, -c)
            assert c / x == constant(kind, spec, c) * x.inverse()
        if spec.p == 2:
            with pytest.raises(ZeroDivisionError):
                x / 2
        else:
            assert x / 2 == x * constant(kind, spec, 2).inverse()
        for e in (1, 2, 3):
            assert x ** -e == x.inverse() ** e
        assert x ** 0 == constant(kind, spec, 1)
        assert x - x == constant(kind, spec, 0) and x / x == constant(kind, spec, 1)


@spec_param
def test_ratfunc_combines_with_elements_and_polynomials(spec):
    rng = random.Random(spec.q + 1)
    poly = Poly.from_ints(spec, [1, 0, 1])
    for x in (rand_nonzero_ratfunc(rng, spec) for _ in range(8)):
        for c in spec.elements():
            as_k = RatFunc.constant(spec, c)
            assert x + c == c + x == x + as_k
            assert x - c == x - as_k and c - x == as_k - x
            if c:
                assert x / c == x / as_k and c / x == as_k / x
        assert x * poly == x * RatFunc.from_poly(poly)
        assert x - poly == x - RatFunc.from_poly(poly)
        assert x / poly == x / RatFunc.from_poly(poly)
        # a Poly on the left hands RatFunc to its reflected operators
        assert poly - x == RatFunc.from_poly(poly) - x
        assert poly * x == RatFunc.from_poly(poly) * x
        assert poly + x == RatFunc.from_poly(poly) + x


@spec_param
def test_polynomial_with_an_int_is_a_type_error(spec):
    poly = Poly.from_ints(spec, [1, 0, 1])
    for op, c in ((operator.add, 1), (operator.mul, 2), (operator.sub, 1)):
        with pytest.raises(TypeError):
            op(poly, c)


@spec_param
@kind_param
@pytest.mark.parametrize("foreign", [1.5, "1"], ids=["float", "str"])
def test_foreign_operand_is_a_type_error(kind, spec, foreign):
    """Arithmetic with a float or a str raises TypeError; equality is False."""
    x = nonzero_samples(kind, spec)[0]
    for op in (operator.sub, operator.truediv):
        with pytest.raises(TypeError):
            op(x, foreign)
        with pytest.raises(TypeError):
            op(foreign, x)
    assert (x == foreign) is False and (x != foreign) is True


@spec_param
@kind_param
def test_mixed_spec_operand_is_a_value_error(kind, spec):
    x = nonzero_samples(kind, spec)[0]
    y = nonzero_samples(kind, OTHER_SPEC[spec])[0]
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(ValueError):
            op(x, y)
        with pytest.raises(ValueError):
            op(y, x)


@pytest.mark.parametrize("name", DERIVED)
def test_derived_operators_are_bound_in_each_class_body(name):
    assert name in vars(FqElem) and name in vars(RatFunc)
    assert vars(FqElem)[name] is vars(RatFunc)[name]


def test_printer_pins():
    a4, a9 = F4.gen, F9.gen
    assert [str(x) for x in F4.elements()] == ["0", "1", "a", "1+a"]
    assert [str(x) for x in F9.elements()] == [
        "0", "1", "2", "a", "1+a", "2+a", "2*a", "1+2*a", "2+2*a"]
    assert repr(a4 + 1) == "FqElem(1+a, F_4)"
    assert F4.spec_text() == "p=2;k=2;mod=1+a+a^2"
    assert F9.spec_text() == "p=3;k=2;mod=1+a^2"
    assert F8.spec_text() == "p=2;k=3;mod=1+a+a^3"
    assert str(Poly.zero(F4)) == str(RatFunc.zero(F9)) == "0"
    # a coefficient holding "+" is parenthesized, in the constant term and before T^e
    assert str(Poly(F4, [a4 + 1, F4.zero, a4 + 1])) == "(1+a) + (1+a)*T^2"
    assert str(Poly(F9, [a9 + 2, F9.one, F9.zero, 2 * a9 + 2])) == "(2+a) + T + (2+2*a)*T^3"
    # a unit coefficient before T^e is dropped; other coefficients are not
    assert str(Poly(F9, [F9.zero, F9.one, a9, F9.element(2)])) == "T + a*T^2 + 2*T^3"
    assert str(Poly(F4, [a4, a4])) == "a + a*T"
    assert str(Poly.monomial(F9, 5)) == "T^5"
    assert str(pi(F9, -3)) == "1/T^3"
    assert str((a4 + 1) / pi(F4, 1)) == "(1+a)/T"
    assert str(RatFunc.from_poly(Poly(F9, [a9 + 1, F9.one])) / pi(F9, 2)) == "((1+a) + T)/T^2"
