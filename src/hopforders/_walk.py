"""Sweep cells decided by T-adic cylinders, for every field F_q.

Row r of a cell (i, j, depth) encodes theta = sum_d c_d T^(j-depth+d), the c_d
being r's base-q digits as F_q codes, and Theta = [[T^i, 0], [theta, T^j]]
embeds an order exactly when adj(Theta) @ B @ Theta^(p) has no coefficient
below T^(i+j) = det Theta.  That depends on theta's digits alone, so
`cylinders` walks them lowest exponent first: `Laurent` carries a prefix's
theta = P + O(T^m) through the product by the zealous precision rules (Caruso,
Roe and Vaccon, "Tracking p-adic precision", LMS J. Comput. Math. 17, 2014),
and a prefix is rejected, accepted with its whole cylinder or split on the next
digit.  The closed forms of `families` run on the same cylinders, where `.val`
may be an `_AtLeast` bound, comparisons may be UNKNOWN and `&` is Kleene's.
"""

from __future__ import annotations

import itertools

from .matrix import _matmul
from .ratfunc import INF


class _Unknown:
    """The third truth value: what a cylinder's known digits leave open."""

    __slots__ = ()

    def __and__(self, other):       # Kleene: false and anything is false
        return False if other is False else self

    __rand__ = __and__

    def __bool__(self):
        raise TypeError("UNKNOWN has no truth value")


UNKNOWN = _Unknown()


class _AtLeast:
    """A valuation known only from below: v >= bound."""

    __slots__ = ("bound",)

    def __init__(self, bound: int):
        self.bound = bound

    def __rmul__(self, k: int) -> "_AtLeast":      # k > 0
        return _AtLeast(k * self.bound)

    def __ge__(self, x: int):
        return True if self.bound >= x else UNKNOWN


def _collect(ar, pairs, prec) -> "Laurent":
    """The Laurent of the summed (exponent, code) pairs below prec."""
    add, out = ar.add, {}
    for e, c in pairs:
        if e < prec:
            out[e] = add(out[e], c) if e in out else c
    return Laurent(ar, {e: c for e, c in out.items() if c}, prec)


class Laurent:
    """sum terms[e] T^e + O(T^prec) over F_q codes: `terms` holds the nonzero
    coefficients below prec, all of them known; prec is INF when the value is
    exact.  False exactly when it is known to be zero, as `matrix._matmul`
    expects."""

    __slots__ = ("ar", "terms", "prec")

    def __init__(self, ar, terms: dict, prec=INF):
        self.ar, self.terms, self.prec = ar, terms, prec

    def __bool__(self):
        return bool(self.terms) or self.prec != INF

    def __add__(self, other: "Laurent") -> "Laurent":
        pairs = itertools.chain(self.terms.items(), other.terms.items())
        return _collect(self.ar, pairs, min(self.prec, other.prec))

    def __neg__(self) -> "Laurent":
        neg = self.ar.neg
        return Laurent(self.ar, {e: neg(c) for e, c in self.terms.items()}, self.prec)

    def __sub__(self, other: "Laurent") -> "Laurent":
        return self + -other

    def __mul__(self, other: "Laurent") -> "Laurent":
        for x, y in ((self, other), (other, self)):
            if y.prec == INF and len(y.terms) == 1:
                # times an exact c T^e: exponents and precision shift by e, scaled when c != 1
                (e, c), = y.terms.items()
                mul = self.ar.mul
                return Laurent(self.ar, {k + e: v if c == 1 else mul(v, c)
                                         for k, v in x.terms.items()}, x.prec + e)
        # (P + O(T^a)) (Q + O(T^b)) = PQ + O(T^min(a + v(Q), b + v(P), a + b))
        lo1, lo2 = min(self.terms, default=INF), min(other.terms, default=INF)
        mul, items = self.ar.mul, itertools.product(self.terms.items(), other.terms.items())
        return _collect(self.ar, ((e1 + e2, mul(c1, c2)) for (e1, c1), (e2, c2) in items),
                        min(self.prec + lo2, other.prec + lo1, self.prec + other.prec))

    def pth_power(self) -> "Laurent":
        """The Frobenius twist: Frobenius on the coefficients, exponents and
        precision scaled by p, as (P + X)^(p) = P^(p) + X^(p)."""
        ar = self.ar
        return Laurent(ar, {ar.p * e: ar.frob(c) for e, c in self.terms.items()},
                       ar.p * self.prec)

    @property
    def val(self):
        """The valuation: exact once a nonzero coefficient is known, INF for an
        exact zero, else the bound v >= prec."""
        if self.terms:
            return min(self.terms)
        return INF if self.prec == INF else _AtLeast(self.prec)


def cylinders(B, i: int, j: int, depth: int, form=None) -> list[tuple]:
    """Decide the cell (i, j, depth) for B, a 2x2 `Mat` whose entries are
    polynomials in T (denominator 1), such as `families.family_matrix`'s.

    Returns (k, base, oracle, closed) for each cylinder of a partition of the
    cell's rows: its rows are range(base, q^depth, q^k), those whose k lowest
    digits are base's.  `oracle` is the integrality verdict of every row in
    it; `closed` is form(theta, T), with T(e) = T^e, or None for form None.
    """
    spec = B.spec
    ar, p, q = spec.arith, spec.p, spec.q

    def T(e):
        return Laurent(ar, {e: 1})

    zero = Laurent(ar, {})
    bm = [[Laurent(ar, {e: c for e, c in enumerate(x.num.codes) if c}) for x in row]
          for row in B.rows]
    out, stack = [], [(0, 0, {})]
    while stack:
        k, base, digits = stack.pop()
        theta = Laurent(ar, digits, INF if k == depth else j - depth + k)
        adj = [[T(j), zero], [-theta, T(i)]]
        twist = [[T(p * i), zero], [theta.pth_power(), T(p * j)]]
        entries = list(itertools.chain.from_iterable(_matmul(adj, _matmul(bm, twist, zero), zero)))
        oracle = (False if any(e < i + j for x in entries for e in x.terms) else
                  True if all(x.prec >= i + j for x in entries) else UNKNOWN)
        closed = None if form is None else form(theta, T)
        if oracle is UNKNOWN or closed is UNKNOWN:
            stack += [(k + 1, base + c * q ** k, {**digits, j - depth + k: c} if c else digits)
                      for c in range(q)]
        else:
            out.append((k, base, oracle, closed))
    return out
