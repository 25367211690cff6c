"""Metamorphic tests under a change of the coefficient field's presentation.

Both reach the sweep kernel, the field tables and the object oracle
together: a Galois automorphism of F_q fixes T, the valuation and every 0/1
matrix B, so it maps the orders of each family onto themselves; and two
moduli of one degree present isomorphic fields, so they count the same
orders in every (i, j) cell.
"""

from collections import Counter

import pytest

from hopforders.families import RANK_P2_FAMILIES, Family, enumerate_orders
from hopforders.fields import FieldSpec
from hopforders.ratfunc import Poly, RatFunc

from helpers import F4, F8, F9

IJ = range(-1, 3)


def _frobenius(theta: RatFunc) -> RatFunc:
    """c -> c^p on every coefficient of theta; T is fixed."""
    num = Poly(theta.spec, [c.frobenius() for c in theta.num.coeffs])
    return RatFunc(num, theta.den)


@pytest.mark.parametrize("spec, depth", [(F4, 3), (F8, 2), (F9, 2)])
def test_records_are_closed_under_galois(spec, depth):
    for family in RANK_P2_FAMILIES:
        records = {(r.i, r.j, r.theta) for r in enumerate_orders(family, spec, IJ, IJ, depth)}
        images = {(i, j, _frobenius(theta)) for i, j, theta in records}
        assert images == records, family
        if family is Family.ALPHA_P_N:     # every point is an order: the map moves some
            assert any(_frobenius(theta) != theta for _, _, theta in records)


@pytest.mark.parametrize("moduli", [[(1, 1, 0, 1), (1, 0, 1, 1)],
                                    [(1, 0, 1), (2, 1, 1), (2, 2, 1)]])
def test_record_counts_do_not_depend_on_the_modulus(moduli):
    specs = [FieldSpec(2 if len(m) == 4 else 3, len(m) - 1, m) for m in moduli]
    for family in RANK_P2_FAMILIES:
        counts = [Counter((r.i, r.j) for r in enumerate_orders(family, spec, IJ, IJ, 2))
                  for spec in specs]
        assert all(c == counts[0] for c in counts[1:]), family
