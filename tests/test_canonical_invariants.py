"""Canonical-form invariants under arbitrary operation sequences (hypothesis)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from hopforders.families import canonical_theta
from hopforders.ratfunc import INF, Poly, RatFunc, poly_gcd

from helpers import F2, F3, F4, F9, pi, rand_fq


def polys(spec, max_deg=4):
    return st.lists(st.integers(0, spec.p - 1), min_size=1, max_size=max_deg + 1) \
        .map(lambda cs: Poly.from_ints(spec, cs))


def nonzero_polys(spec, max_deg=4):
    return polys(spec, max_deg).filter(lambda p: not p.is_zero())


def ratfuncs(spec):
    return st.builds(RatFunc, polys(spec), nonzero_polys(spec))


def assert_canonical(x: RatFunc):
    if x.is_zero():
        assert x.den.is_one() and x.val == INF
        return
    assert x.den.is_monic()
    g = poly_gcd(x.num, x.den)
    assert g.degree == 0, f"gcd {g} not trivial for {x}"
    assert x.val == x.num.ord - x.den.ord


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_ops_preserve_canonical_form(data):
    for spec in (F2, F3, F4):
        x = data.draw(ratfuncs(spec))
        y = data.draw(ratfuncs(spec))
        for value in (x + y, x - y, x * y, -x, x.pth_power(), x ** 3):
            assert_canonical(value)
        if not y.is_zero():
            assert_canonical(x / y)
            assert (x / y) * y == x
        assert_canonical(x)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_equality_is_subtraction(data):
    spec = F3
    x = data.draw(ratfuncs(spec))
    y = data.draw(ratfuncs(spec))
    assert (x == y) == (x - y).is_zero()
    if x == y:
        assert hash(x) == hash(y)
        assert str(x) == str(y)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_gcd_properties(data):
    spec = F2
    a = data.draw(nonzero_polys(spec))
    b = data.draw(nonzero_polys(spec))
    g = poly_gcd(a, b)
    assert g.is_monic()
    assert a.divmod(g)[1].is_zero()
    assert b.divmod(g)[1].is_zero()
    q1 = a.divmod(g)[0]
    q2 = b.divmod(g)[0]
    assert poly_gcd(q1, q2).degree == 0


def test_canonical_theta_keeps_a_canonical_laurent_theta():
    """A theta = T^v * nu with len(nu) <= j - v is returned as the same
    object; a longer one, and c * T^j for c != 1, equal the term-by-term
    truncation to exponents [v, j), T^j when v = j."""
    rng = random.Random("canonical-laurent")
    kept = cut = 0
    for spec in (F2, F3, F4, F9):
        for _ in range(60):
            v = rng.randrange(-4, 5)
            codes = [rand_fq(rng, spec) for _ in range(rng.randrange(1, 6))]
            codes[0] = codes[0] or spec.element(1)
            codes[-1] = codes[-1] or spec.element(1)
            terms = [RatFunc.constant(spec, c) * pi(spec, v + d) for d, c in enumerate(codes)]
            theta = sum(terms[1:], terms[0])
            j = v + rng.randrange(1, len(codes) + 3)
            got = canonical_theta(theta, j)
            if len(codes) <= j - v:
                assert got is theta
                kept += 1
            else:
                assert got is not theta
                assert got == sum(terms[1:j - v], terms[0])
                cut += 1
            c = rand_fq(rng, spec)
            if c and c != 1:
                assert canonical_theta(RatFunc.constant(spec, c) * pi(spec, j), j) == pi(spec, j)
    assert kept and cut
