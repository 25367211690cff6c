"""Coverage beyond the 2x2 catalog: the core operations are rank-generic."""

import random

import pytest

from hopforders.families import rank1_orders
from hopforders.matrix import Mat
from hopforders.orders import (NotIntegralError, ddl_normalize, is_ddl,
                               order_from_theta, same_order, special_fibre,
                               verify_twisted_equation)
from hopforders.ratfunc import RatFunc

from helpers import (F2, F3, pi, rand_invertible, rand_unit_matrix,
                     worked_example)


def shift_matrix(spec, n):
    """Upper-shift B: the rank p^n algebra R[t]/(t^(p^n)) in n generators."""
    zero, one = RatFunc.zero(spec), RatFunc.one(spec)
    return Mat([[one if j == i + 1 else zero for j in range(n)] for i in range(n)])


def cyclic_matrix(spec, n):
    """Cyclic permutation B: the monogenic rank-p^n algebra R[t]/(t^(p^n) - t)."""
    zero, one = RatFunc.zero(spec), RatFunc.one(spec)
    return Mat([[one if (j == i + 1 or (i == n - 1 and j == 0)) else zero
                 for j in range(n)] for i in range(n)])


def test_shift_fibre_is_maximally_nilpotent():
    for spec, n in ((F2, 3), (F3, 4)):
        rep = special_fibre(shift_matrix(spec, n))
        assert rep.fpower_ranks == tuple(n - m for m in range(1, n + 1))
        assert rep.connected


def test_cyclic_fibre_is_etale():
    for spec, n in ((F2, 3), (F3, 4)):
        rep = special_fibre(cyclic_matrix(spec, n))
        assert rep.etale
        assert rep.fpower_ranks == (n,) * n


def test_order_construction_3x3_shift():
    spec = F2
    B = shift_matrix(spec, 3)
    zero, one = RatFunc.zero(spec), RatFunc.one(spec)
    # a 3x3 DDL embedding; integrality worked out by the oracle itself
    theta = Mat([[pi(spec, 2), zero, zero],
                 [one, pi(spec, 1), zero],
                 [one, one, pi(spec, 1)]])
    try:
        result = order_from_theta(B, theta)
        assert verify_twisted_equation(theta, result.A, B)
    except NotIntegralError as exc:
        assert exc.witness.valuation < 0


def test_unit_closure_rank_4():
    rng = random.Random(97)
    spec = F2
    B = cyclic_matrix(spec, 4)
    built = 0
    while built < 5:
        theta = rand_unit_matrix(rng, spec, 4, max_deg=1)
        base = order_from_theta(B, theta)      # unit theta always succeeds
        U = rand_unit_matrix(rng, spec, 4, max_deg=1)
        moved = order_from_theta(B, theta @ U)
        assert same_order(theta, theta @ U)
        assert moved.A == U.inv() @ base.A @ U.twist()
        built += 1


def test_ddl_normalize_4x4():
    rng = random.Random(101)
    for _ in range(10):
        theta = rand_invertible(rng, F3, 4, max_deg=1)
        out = ddl_normalize(theta)
        assert is_ddl(out)
        assert same_order(theta, out)


def test_rank1_matches_1x1_oracle():
    # the 1x1 matrix pipeline and the rank-p rule agree
    spec = F3
    B0 = Mat.zeros(spec, 1)
    for i in range(-3, 4):
        theta = Mat([[pi(spec, i)]])
        result = order_from_theta(B0, theta)   # b = 0: always an order
        assert result.A == Mat.zeros(spec, 1)
        assert bool(rank1_orders(RatFunc.zero(spec), i))
    b = pi(spec)                               # 0 <= v(b) <= p-2
    B = Mat([[b]])
    for i in range(-3, 4):
        theta = Mat([[pi(spec, i)]])
        try:
            result = order_from_theta(B, theta)
            oracle_ok = True
            assert result.A == Mat([[b * pi(spec, (spec.p - 1) * i)]])
        except NotIntegralError:
            oracle_ok = False
        assert oracle_ok == bool(rank1_orders(b, i))


def test_worked_example_is_not_ddl_but_normalizes():
    _, theta, _ = worked_example(F3)
    assert not is_ddl(theta)    # the zero at (3,2) is never dominated
    out = ddl_normalize(theta)
    assert is_ddl(out) and same_order(theta, out)
