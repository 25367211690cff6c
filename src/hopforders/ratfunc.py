"""Exact arithmetic in K = F_q(T), the scalar layer under every matrix.

T is the uniformizer of the valuation ring R = {x in K : v(x) >= 0}; v is the
normalized T-adic valuation with v(T) = 1 and v(0) = +infinity.  :class:`Poly`
is a polynomial in T over F_q; :class:`RatFunc` is the canonical reduced
fraction (gcd(num, den) = 1, den monic) with its valuation cached.  Negative
powers of T are ordinary fractions with T-power denominators, so one scalar
type covers all of K.
"""

from __future__ import annotations

import math
from typing import Sequence, Union

from .fields import FieldSpec, FqElem

INF = math.inf


class Poly:
    """A polynomial in T over F_q, coefficients ascending, trailing zeros trimmed.

    The coefficients are stored as a tuple of int codes (see hopforders.fields)
    and every operation runs on them; `coeffs`, `lc()` and `constant()`
    return FqElem views.
    """

    __slots__ = ("spec", "codes")

    def __init__(self, spec: FieldSpec, coeffs: Sequence[FqElem]):
        cs = [c.code for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.spec = spec
        self.codes = tuple(cs)

    @classmethod
    def _raw(cls, spec: FieldSpec, codes: tuple[int, ...]) -> "Poly":
        """Trusted constructor for a tuple of codes with a nonzero last entry."""
        self = object.__new__(cls)
        self.spec = spec
        self.codes = codes
        return self

    @classmethod
    def _trimmed(cls, spec: FieldSpec, codes: list[int]) -> "Poly":
        while codes and not codes[-1]:
            codes.pop()
        return cls._raw(spec, tuple(codes))

    @classmethod
    def from_ints(cls, spec: FieldSpec, ints: Sequence[int]) -> "Poly":
        p = spec.p
        return cls._trimmed(spec, [c % p for c in ints])

    @classmethod
    def zero(cls, spec: FieldSpec) -> "Poly":
        return cls._raw(spec, ())

    @classmethod
    def one(cls, spec: FieldSpec) -> "Poly":
        return cls._raw(spec, (1,))

    @classmethod
    def monomial(cls, spec: FieldSpec, e: int, coeff: Union[int, FqElem] = 1) -> "Poly":
        c = spec.element(coeff).code
        if not c:
            return cls.zero(spec)
        return cls._raw(spec, (0,) * e + (c,))

    @property
    def coeffs(self) -> tuple[FqElem, ...]:
        make = self.spec._make
        return tuple(make(c) for c in self.codes)

    @property
    def degree(self) -> int:
        """Degree, with deg 0 = -1 by convention."""
        return len(self.codes) - 1

    @property
    def ord(self):
        """Order of vanishing at T = 0; +infinity for the zero polynomial."""
        if self.codes and self.codes[0]:
            return 0
        for i, c in enumerate(self.codes):
            if c:
                return i
        return INF

    def is_zero(self) -> bool:
        return not self.codes

    def is_one(self) -> bool:
        return self.codes == (1,)

    def lc(self) -> FqElem:
        if not self.codes:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.spec._make(self.codes[-1])

    def constant(self) -> FqElem:
        return self.spec._make(self.codes[0] if self.codes else 0)

    def is_monic(self) -> bool:
        return bool(self.codes) and self.codes[-1] == 1

    def monic(self) -> "Poly":
        if not self.codes or self.codes[-1] == 1:
            return self
        return self._scale(self.spec.arith.inv(self.codes[-1]))

    def _scale(self, c: int) -> "Poly":
        """Multiply by the constant with code c."""
        if not c:
            return Poly.zero(self.spec)
        if c == 1:
            return self
        mul = self.spec.arith.mul
        return Poly._raw(self.spec, tuple(mul(x, c) for x in self.codes))

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.codes, other.codes
        if len(a) < len(b):
            a, b = b, a
        out = list(map(self.spec.arith.add, a, b))
        out += a[len(b):]
        return Poly._trimmed(self.spec, out)

    def __sub__(self, other: "Poly") -> "Poly":
        a, b = self.codes, other.codes
        ar = self.spec.arith
        out = list(map(ar.sub, a, b))
        if len(a) > len(b):
            out += a[len(b):]
        else:
            out += map(ar.neg, b[len(a):])
        return Poly._trimmed(self.spec, out)

    def __neg__(self) -> "Poly":
        return Poly._raw(self.spec, tuple(map(self.spec.arith.neg, self.codes)))

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.codes, other.codes
        spec = self.spec
        if not a or not b:
            return Poly.zero(spec)
        if len(a) > len(b):
            a, b = b, a
        if not any(a[:-1]):                 # c * T^m: shift and scale
            return Poly._raw(spec, (0,) * (len(a) - 1) + b)._scale(a[-1])
        if not any(b[:-1]):
            return Poly._raw(spec, (0,) * (len(b) - 1) + a)._scale(b[-1])
        out = [0] * (len(a) + len(b) - 1)
        nonzero_b = [(j, y) for j, y in enumerate(b) if y]
        if spec.k == 1:
            # lazy reduction: accumulate plain int products, reduce once
            for i, x in enumerate(a):
                if x:
                    for j, y in nonzero_b:
                        out[i + j] += x * y
            p = spec.p
            return Poly._raw(spec, tuple([c % p for c in out]))
        ar = spec.arith
        log, exp, add = ar.log, ar.exp, ar.add
        logs_b = [(j, log[y]) for j, y in nonzero_b]
        for i, x in enumerate(a):
            if x:
                lx = log[x]
                for j, ly in logs_b:
                    out[i + j] = add(out[i + j], exp[lx + ly])
        return Poly._raw(spec, tuple(out))

    def scale(self, c: FqElem) -> "Poly":
        return self._scale(c.code)

    def shift(self, m: int) -> "Poly":
        """Multiply by T^m, m >= 0."""
        if not self.codes:
            return self
        return Poly._raw(self.spec, (0,) * m + self.codes)

    def rshift(self, m: int) -> "Poly":
        """Exact division by T^m; requires ord >= m."""
        if m == 0 or not self.codes:
            return self
        return Poly._raw(self.spec, self.codes[m:])

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        b = other.codes
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        spec = self.spec
        db = len(b) - 1
        if len(self.codes) <= db:
            return Poly.zero(spec), self
        ar = spec.arith
        inv_lead = ar.inv(b[-1])
        if not any(b[:db]):               # a monomial c*T^db: shift and scale
            return (Poly._raw(spec, self.codes[db:])._scale(inv_lead),
                    Poly._trimmed(spec, list(self.codes[:db])))
        rem = list(self.codes)
        q = [0] * (len(rem) - db)
        mul, sub = ar.mul, ar.sub
        for d in range(len(q) - 1, -1, -1):
            c = mul(rem[d + db], inv_lead)
            if c:
                q[d] = c
                for i, y in enumerate(b, d):
                    rem[i] = sub(rem[i], mul(c, y))
        return Poly._raw(spec, tuple(q)), Poly._trimmed(spec, rem[:db])

    def __floordiv__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return self.divmod(other)[1]

    def __pow__(self, e: int, mod: "Poly | None" = None) -> "Poly":
        """self^e for e >= 0 by squaring and multiplying; with `mod`
        (three-argument pow) every product is reduced mod it."""
        if e < 0:
            raise ValueError("a polynomial power needs e >= 0")
        one = Poly.one(self.spec)
        out, base = (one, self) if mod is None else (one % mod, self % mod)
        while e:
            if e & 1:
                out = out * base if mod is None else out * base % mod
            e >>= 1
            if e:
                base = base * base if mod is None else base * base % mod
        return out

    def pth_power(self) -> "Poly":
        """(sum c_i T^i)^p = sum c_i^p T^(p i); exact in characteristic p."""
        if not self.codes:
            return self
        spec = self.spec
        p = spec.p
        out = [0] * ((len(self.codes) - 1) * p + 1)
        out[::p] = map(spec.arith.frob, self.codes)
        return Poly._raw(spec, tuple(out))

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.codes == other.codes and self.spec == other.spec

    def __hash__(self):
        return hash((self.codes, self.spec.p, self.spec.k))

    def __bool__(self):
        return bool(self.codes)

    def __str__(self):
        if not self.codes:
            return "0"
        make = self.spec._make
        terms = []
        for e, c in enumerate(self.codes):
            if not c:
                continue
            cs = str(make(c))
            needs_parens = "+" in cs
            if e == 0:
                terms.append(f"({cs})" if needs_parens else cs)
                continue
            t = "T" if e == 1 else f"T^{e}"
            if c == 1:
                terms.append(t)
            else:
                terms.append(f"({cs})*{t}" if needs_parens else f"{cs}*{t}")
        return " + ".join(terms)

    def __repr__(self):
        return f"Poly({self})"


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm, splitting off the T-power part."""
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    m = min(a.ord, b.ord)
    a, b = a.rshift(int(a.ord)), b.rshift(int(b.ord))
    while not b.is_zero():
        a, b = b, a % b
    return a.monic().shift(m)


class RatFunc:
    """An element of K in canonical form: reduced fraction, monic denominator.

    The T-adic valuation is cached at construction; v = +infinity exactly for
    the zero element.  Canonical forms are unique, so equality and hashing are
    structural.
    """

    __slots__ = ("spec", "num", "den", "val")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in K")
        if num.spec != den.spec:
            raise ValueError("numerator and denominator from different field specs")
        if num.is_zero():
            num, den = num, Poly.one(num.spec)
        elif den.is_one():
            pass
        else:
            m = min(int(num.ord), int(den.ord))
            if m:
                num, den = num.rshift(m), den.rshift(m)
            if den.degree == 0:
                num = num._scale(num.spec.arith.inv(den.codes[0]))
                den = Poly.one(num.spec)
            else:
                if den.ord != den.degree and num.ord != num.degree:
                    # (a monomial on either side is coprime to the other side now)
                    g = poly_gcd(num, den)
                    if g.degree > 0:
                        num = num // g
                        den = den // g
                if den.codes[-1] != 1:
                    inv = num.spec.arith.inv(den.codes[-1])
                    num, den = num._scale(inv), den._scale(inv)
        self.spec = num.spec
        self.num = num
        self.den = den
        self.val = (num.ord - den.ord) if num.codes else INF

    @classmethod
    def _raw(cls, num: Poly, den: Poly) -> "RatFunc":
        """Trusted constructor for inputs already in canonical form."""
        self = object.__new__(cls)
        self.spec = num.spec
        self.num = num
        self.den = den
        self.val = (num.ord - den.ord) if num.codes else INF
        return self

    @classmethod
    def from_poly(cls, num: Poly) -> "RatFunc":
        return cls._raw(num, Poly.one(num.spec))

    @classmethod
    def constant(cls, spec: FieldSpec, c: Union[int, FqElem]) -> "RatFunc":
        return cls.from_poly(Poly(spec, (spec.element(c),)))

    @classmethod
    def zero(cls, spec: FieldSpec) -> "RatFunc":
        return cls.from_poly(Poly.zero(spec))

    @classmethod
    def one(cls, spec: FieldSpec) -> "RatFunc":
        return cls.from_poly(Poly.one(spec))

    @classmethod
    def pi_power(cls, spec: FieldSpec, m: int) -> "RatFunc":
        """T^m for any integer m; negative m gives a T-power denominator."""
        if m >= 0:
            return cls._raw(Poly.monomial(spec, m), Poly.one(spec))
        return cls._raw(Poly.one(spec), Poly.monomial(spec, -m))

    def is_integral(self) -> bool:
        """Membership in R, i.e. v >= 0 (reduced form: T does not divide den)."""
        return self.val >= 0

    def is_zero(self) -> bool:
        return not self.num.codes

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def residue(self) -> FqElem:
        """The image in F_q under reduction mod T; requires an integral input."""
        if self.val < 0:
            raise ValueError(f"cannot reduce a non-integral element mod T (v = {self.val})")
        if self.is_zero():
            return self.spec.zero
        return self.num.constant() / self.den.constant()

    def pth_power(self) -> "RatFunc":
        """x^p computed by the coefficient Frobenius spread on num and den."""
        # gcd(num, den) = 1 implies gcd(num^p, den^p) = 1, and den^p stays monic
        return RatFunc._raw(self.num.pth_power(), self.den.pth_power())

    def __add__(self, other):
        other = _coerce(self, other)
        if other is NotImplemented:
            return NotImplemented
        if self.den.is_one() and other.den.is_one():
            return RatFunc.from_poly(self.num + other.num)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(self, other)
        if other is NotImplemented:
            return NotImplemented
        if self.den.is_one() and other.den.is_one():
            return RatFunc.from_poly(self.num - other.num)
        return RatFunc(self.num * other.den - other.num * self.den, self.den * other.den)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return RatFunc._raw(-self.num, self.den)

    def __mul__(self, other):
        other = _coerce(self, other)
        if other is NotImplemented:
            return NotImplemented
        if self.den.is_one() and other.den.is_one():
            return RatFunc.from_poly(self.num * other.num)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionError("division by zero in K")
        num, den = self.den, self.num
        if den.codes[-1] != 1:
            inv = self.spec.arith.inv(den.codes[-1])
            num, den = num._scale(inv), den._scale(inv)
        return RatFunc._raw(num, den)

    def __truediv__(self, other):
        other = _coerce(self, other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        # coprime parts stay coprime, and a monic denominator stays monic
        return RatFunc._raw(self.num ** e, self.den ** e)

    def __bool__(self):
        return bool(self.num.codes)

    def __eq__(self, other):
        if isinstance(other, RatFunc):
            return (self.num == other.num and self.den == other.den
                    and self.spec == other.spec)
        if isinstance(other, int):
            return self == RatFunc.constant(self.spec, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        ns = str(self.num)
        ds = str(self.den)
        if " + " in ns:
            ns = f"({ns})"
        if " + " in ds:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self):
        return f"RatFunc({self})"


def _coerce(ref: RatFunc, other) -> RatFunc:
    if isinstance(other, RatFunc):
        if ref.spec != other.spec:
            raise ValueError("cannot combine elements over different field specs")
        return other
    if isinstance(other, int):
        return RatFunc.constant(ref.spec, other)
    if isinstance(other, FqElem):
        return RatFunc.constant(ref.spec, other)
    if isinstance(other, Poly):
        return RatFunc.from_poly(other)
    return NotImplemented
