import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopforders.fields import MAX_Q, FieldSpec, is_prime

from helpers import (F2, F3, F4, F5, F8, F9, F16, F25, F27, digit_add, digit_frobenius,
                     digit_inverse, digit_mul, digit_sub)

ALL_SPECS = [F2, F3, F5, F4, F9]


def elems(spec):
    return st.lists(
        st.integers(0, spec.p - 1), min_size=spec.k, max_size=spec.k
    ).map(spec.element)


def test_prime_check():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)
    assert not is_prime(0)


def test_spec_validation():
    with pytest.raises(ValueError):
        FieldSpec(4)
    with pytest.raises(ValueError):
        FieldSpec(2, 0)
    with pytest.raises(ValueError):
        FieldSpec(3, 1, (1, 1))          # modulus forbidden when k = 1
    with pytest.raises(ValueError):
        FieldSpec(2, 2)                  # modulus required when k > 1
    with pytest.raises(ValueError):
        FieldSpec(2, 2, (1, 0, 1))       # a^2+1 = (a+1)^2 over F_2
    with pytest.raises(ValueError):
        FieldSpec(2, 2, (1, 1))          # degree mismatch


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_spec_accepts_exactly_the_rootless_monic_moduli(p, k):
    """In degree 2 and 3 irreducible means without a root in F_p."""
    for low in itertools.product(range(p), repeat=k):
        m = low + (1,)
        rootless = all(sum(c * r ** t for t, c in enumerate(m)) % p for r in range(p))
        if rootless:
            assert FieldSpec(p, k, m).modulus == m
        else:
            with pytest.raises(ValueError, match="reducible"):
                FieldSpec(p, k, m)


def test_non_monic_modulus_normalizes():
    spec = FieldSpec(3, 2, (2, 0, 2))
    assert spec == FieldSpec(3, 2, (1, 0, 1)) and spec.modulus == (1, 0, 1)
    assert spec.spec_text() == "p=3;k=2;mod=1+a^2"


def test_spec_value_equality():
    assert FieldSpec(3) == FieldSpec(3)
    assert FieldSpec(2, 2, (1, 1, 1)) == FieldSpec(2, 2, (1, 1, 1))
    assert FieldSpec(2) != FieldSpec(3)
    assert FieldSpec(3) != 3 and not FieldSpec(3) == 3
    assert repr(F4) == "FieldSpec('p=2;k=2;mod=1+a+a^2')"


def test_element_equality_and_hash():
    assert F3.element(2) == 2 and F3.element(2) == -1 and F3.element(2) != 1
    assert F4.one == 1 and F4.gen != 0
    assert hash(F4.element((1, 1))) == hash(F4.gen + 1)


def test_mul_f3():
    two = F3.element(2)
    assert two * two == F3.element(1)


def test_mul_f4_reduces_by_modulus():
    a = F4.gen
    assert a * a == F4.element((1, 1))   # a^2 = a + 1


def test_div_f5():
    assert F5.one / F5.element(2) == F5.element(3)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        F3.one / F3.zero
    with pytest.raises(ZeroDivisionError):
        F4.one / F4.zero


def test_mixed_specs_rejected():
    with pytest.raises(ValueError):
        F2.one + F3.one
    with pytest.raises(ValueError, match="^element belongs to a different field spec$"):
        F3.element(F2.one)
    with pytest.raises(ValueError, match=r"^too many coordinates for F_2\^2$"):
        F4.element((1, 0, 1))
    with pytest.raises(ValueError, match="^prime fields have no extension generator$"):
        F3.gen


def test_frobenius_prime_field_is_identity():
    for x in F5.elements():
        assert x.frobenius() == x


def test_frobenius_f4():
    a = F4.gen
    assert a.frobenius() == a * a == F4.element((1, 1))


def test_frobenius_f9():
    a = F9.gen
    assert a.frobenius() == -a


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_frobenius_exhaustive_laws(spec):
    els = list(spec.elements())
    for x in els:
        y = x
        for _ in range(spec.k):
            y = y.frobenius()
        assert y == x                    # Frobenius iterated k times is the identity
        assert x.frobenius() == x ** spec.p
    for x in els[: spec.q]:
        for y in els[: spec.q]:
            assert (x + y).frobenius() == x.frobenius() + y.frobenius()


@pytest.mark.parametrize("spec", [F2, F3, F4, F9], ids=lambda s: f"F{s.q}")
def test_powers_match_repeated_product(spec):
    """x ** e goes through Poly.__pow__: for e >= 0 it is the e-fold product,
    for e < 0 that of the inverse; 0 ** 0 = 1 and 0 has no negative power."""
    q = spec.q
    for x in spec.elements():
        for e in (0, 1, 2, q - 2, q - 1, q):
            ref = spec.one
            for _ in range(e):
                ref = ref * x
            assert x ** e == ref, (x, e)
        if x:
            assert x ** -1 == x.inverse() and x ** -2 == x.inverse() * x.inverse()
    assert spec.zero ** 0 == spec.one and spec.zero ** 3 == spec.zero
    with pytest.raises(ZeroDivisionError):
        spec.zero ** -1


@pytest.mark.parametrize("spec", ALL_SPECS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_field_axioms(spec, data):
    x = data.draw(elems(spec))
    y = data.draw(elems(spec))
    z = data.draw(elems(spec))
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + spec.zero == x
    assert x * spec.one == x
    assert x + (-x) == spec.zero
    assert x - y == x + (-y)
    assert x - 1 == x + (-spec.one) and 1 - x == spec.one + (-x)
    if y:
        assert (x / y) * y == x
        assert y * y.inverse() == spec.one


def test_str_roundtrip_forms():
    assert str(F3.element(2)) == "2"
    assert str(F4.gen) == "a"
    assert str(F4.element((1, 1))) == "1+a"
    assert str(F9.element((0, 2))) == "2*a"
    assert str(F4.zero) == "0"


def test_spec_text():
    assert F2.spec_text() == "p=2"
    assert F4.spec_text() == "p=2;k=2;mod=1+a+a^2"


@pytest.mark.parametrize("spec", [F4, F9, FieldSpec(2, 4, (1, 1, 0, 0, 1)),
                                  FieldSpec(3, 3, (1, 2, 0, 1))])
def test_inverse_exhaustive_extension_fields(spec):
    for x in spec.elements():
        if x:
            assert x * x.inverse() == spec.one


def test_field_size_limit():
    assert MAX_Q == 2 ** 16
    FieldSpec(65521)                                  # largest prime below the limit
    assert FieldSpec(2, 16, (1, 0, 1, 1, 0, 1) + (0,) * 10 + (1,)).q == MAX_Q
    for args in ((65537,), (1000000000000000003,), (2, 17, (1, 1) + (0,) * 15 + (1,)),
                 (2, 40, (1, 0, 0, 1, 1, 1) + (0,) * 34 + (1,)), (3, 10 ** 9)):
        with pytest.raises(ValueError, match="MAX_Q"):
            FieldSpec(*args)
    with pytest.raises(ValueError, match="prime"):    # small inputs keep their messages
        FieldSpec(4)


@pytest.mark.parametrize("spec", [F4, F8, F9, F16, F25, F27], ids=lambda s: f"F{s.q}")
def test_code_arithmetic_matches_digit_reference(spec):
    """Every pair, against the schoolbook digit product reduced by the
    modulus (tests/helpers.py)."""
    p = spec.p
    els = list(spec.elements())
    for code, x in enumerate(els):
        xd = x.coeffs
        assert x.code == code == sum(d * p ** t for t, d in enumerate(xd))
        assert spec.element(xd) is x
        assert x.frobenius().coeffs == digit_frobenius(spec, xd)
        assert (-x).coeffs == digit_sub(spec, spec.zero.coeffs, xd)
        if x:
            assert x.inverse().coeffs == digit_inverse(spec, xd)
        for y in els:
            yd = y.coeffs
            assert (x + y).coeffs == digit_add(spec, xd, yd)
            assert (x - y).coeffs == digit_sub(spec, xd, yd)
            assert (x * y).coeffs == digit_mul(spec, xd, yd)


def test_field_at_max_q_builds_tables_and_computes():
    for args, q in (((2, 16, (1, 0, 1, 1, 0, 1) + (0,) * 10 + (1,)), MAX_Q),
                    ((3, 10, (1, 0, 2) + (0,) * 7 + (1,)), 3 ** 10)):   # 1 + 2a^2 + a^10
        spec = FieldSpec(*args)
        assert spec.q == q
        t0 = time.perf_counter()
        ar = spec.arith
        assert time.perf_counter() - t0 < 30
        assert len(ar.log) == spec.q and len(ar.exp) == 4 * (spec.q - 1) + 1   # O(q) tables
        rng = random.Random("max_q")
        for _ in range(200):
            x = spec.element([rng.randrange(spec.p) for _ in range(spec.k)])
            y = spec.element([rng.randrange(spec.p) for _ in range(spec.k)])
            assert (x * y).coeffs == digit_mul(spec, x.coeffs, y.coeffs)
            assert (x + y).coeffs == digit_add(spec, x.coeffs, y.coeffs)
            assert x.frobenius().coeffs == digit_frobenius(spec, x.coeffs)
            if x:
                assert x * x.inverse() == spec.one
