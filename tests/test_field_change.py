"""Metamorphic tests under a change of the coefficient field.

All reach the cylinder walk, the field tables and the object oracle
together: a Galois automorphism of F_q fixes T, the valuation and every 0/1
matrix B, so it maps the orders of each family onto themselves; two moduli
of one degree present isomorphic fields, so the explicit isomorphism
a -> r, with r a root of the first modulus in the second field, maps the
records of one onto the records of the other in every (i, j) cell; and a
subfield decides its thetas as the extension does, so its records are the
extension's records whose coefficients lie in the subfield.
"""

import pytest

from hopforders.families import Family, enumerate_orders
from hopforders.fields import FieldSpec
from hopforders.ratfunc import Poly, RatFunc

from helpers import F2, F3, F4, F8, F9, F16

IJ = range(-1, 3)


def _frobenius(theta: RatFunc) -> RatFunc:
    """c -> c^p on every coefficient of theta; T is fixed."""
    num = Poly(theta.spec, [c.frobenius() for c in theta.num.coeffs])
    return RatFunc(num, theta.den)


@pytest.mark.parametrize("spec, depth", [(F4, 3), (F8, 2), (F9, 2)])
def test_records_are_closed_under_galois(spec, depth):
    for family in Family:
        records = {(r.i, r.j, r.theta) for r in enumerate_orders(family, spec, IJ, IJ, depth)}
        images = {(i, j, _frobenius(theta)) for i, j, theta in records}
        assert images == records, family
        if family is Family.ALPHA_P_N:     # every point is an order: the map moves some
            assert any(_frobenius(theta) != theta for _, _, theta in records)


def _isomorphism(source: FieldSpec, target: FieldSpec):
    """a -> r on theta's coefficients, r the root of source's modulus in
    target found by search over target's q elements: an isomorphism of two
    presentations of one field, or the embedding of a subfield.  A prime
    field maps its residues and needs no root."""
    def at(coords, x):
        return sum((target.element(c) * x ** t for t, c in enumerate(coords)), target.zero)

    r = target.zero if source.k == 1 else next(
        x for x in target.elements() if not at(source.modulus, x))

    def poly(f: Poly) -> Poly:
        return Poly(target, [at(c.coeffs, r) for c in f.coeffs])

    return lambda theta: RatFunc(poly(theta.num), poly(theta.den))


def _cells(family, spec, image=lambda theta: theta):
    """The image of the record thetas of every (i, j) cell at depth 2."""
    out = {}
    for r in enumerate_orders(family, spec, IJ, IJ, 2):
        out.setdefault((r.i, r.j), set()).add(image(r.theta))
    return out


@pytest.mark.parametrize("source, target", [
    ((2, (1, 1, 0, 1)), (2, (1, 0, 1, 1))),     # F_8: a^3+a+1 -> a^3+a^2+1
    ((3, (1, 0, 1)), (3, (2, 1, 1))),           # F_9: a^2+1 -> a^2+a+2
    ((3, (1, 0, 1)), (3, (2, 2, 1)))])          # F_9: a^2+1 -> a^2+2a+2
def test_records_map_through_the_field_isomorphism(source, target):
    source, target = (FieldSpec(p, len(m) - 1, m) for p, m in (source, target))
    iso = _isomorphism(source, target)
    for family in Family:
        assert _cells(family, source, iso) == _cells(family, target), family


@pytest.mark.parametrize("sub, ext, depth", [(F2, F4, 3), (F2, F8, 2), (F3, F9, 2), (F4, F16, 2)],
                         ids=lambda x: f"F{x.q}" if isinstance(x, FieldSpec) else f"d{x}")
def test_subfield_records_are_the_extension_records_over_it(sub, ext, depth):
    """A theta over the subfield F_s passes in F_s as in the extension, and
    the extension's thetas over F_s are those fixed by x -> x^s."""
    embed = _isomorphism(sub, ext)

    def over_sub(theta):
        image = theta
        for _ in range(sub.k):
            image = _frobenius(image)
        return image == theta

    for family in Family:
        down = {(r.i, r.j, embed(r.theta)) for r in enumerate_orders(family, sub, IJ, IJ, depth)}
        records = {(r.i, r.j, r.theta) for r in enumerate_orders(family, ext, IJ, IJ, depth)}
        assert down == {(i, j, theta) for i, j, theta in records if over_sub(theta)}, family
        if family is Family.ALPHA_P_N:     # every point is an order: some lie outside F_s
            assert len(down) < len(records)
