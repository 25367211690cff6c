"""Exact arithmetic in small finite fields F_q, q = p^k.

A :class:`FieldSpec` pins the coefficient field down once: the prime p, the
extension degree k and, for k > 1, the monic irreducible modulus presenting
F_q = F_p[a]/(modulus).  Elements of different specs never combine.

Inside the library an element is an int code c = sum_t d_t p^t in [0, q),
where d_0 + d_1 a + ... + d_{k-1} a^(k-1) is its power-basis form; 0 is zero,
1 is one, and over F_p the code is the residue.  `FieldSpec.arith` holds the
code arithmetic: plain ints mod p for k = 1; for k > 1 log/antilog tables to
a primitive element, built once on first use, serve multiplication, inverse
and Frobenius, addition is XOR for p = 2 and goes through a Zech-log table
for odd p.  Every table has O(q) entries.  :class:`FqElem` is the immutable
element at the API edge; its operations run on the same code arithmetic.

The Frobenius map x -> x^p lives here; it is the coefficient-level piece of
the entry-wise twist applied to matrices over K.
"""

from __future__ import annotations

import operator
from typing import Sequence, Union

# Poly (hopforders.ratfunc) is imported at call time: ratfunc imports this module.

# The largest field size q = p^k a FieldSpec accepts.  It bounds the work of
# the primality and irreducibility checks at construction and of everything
# that lists the q elements.
MAX_Q = 2 ** 16


def is_prime(n: int) -> bool:
    """Primality by trial division; FieldSpec bounds p by MAX_Q first."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _is_irreducible(m) -> bool:
    """Whether the monic `Poly` m over F_p has no monic divisor of degree
    1..k/2; a brute-force search, fine for the small k used here."""
    from .ratfunc import Poly
    spec, p, k = m.spec, m.spec.p, m.degree
    for d in range(1, k // 2 + 1):
        for low in range(p ** d):
            if not m % Poly.from_ints(spec, [low // p ** t for t in range(d)] + [1]):
                return False
    return True


def _coeff_str(coeffs: Sequence[int]) -> str:
    """Ascending polynomial in `a`, e.g. "1+a+a^2"; compact, round-trips."""
    terms = []
    for e, c in enumerate(coeffs):
        if c == 0:
            continue
        if e == 0:
            terms.append(str(c))
        elif e == 1:
            terms.append("a" if c == 1 else f"{c}*a")
        else:
            terms.append(f"a^{e}" if c == 1 else f"{c}*a^{e}")
    return "+".join(terms) if terms else "0"


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


class _Arith:
    """Code arithmetic of one field: add, sub, neg, mul, inv, frob (x -> x^p)
    and pow (x, e >= 0), each on int codes.  Zero has no inverse: callers
    check first."""

    __slots__ = ("add", "sub", "neg", "mul", "inv", "frob", "pow", "log", "exp")

    def __init__(self, p: int, k: int, modulus: tuple[int, ...] | None):
        if k == 1:
            self.log = self.exp = None
            self.add = lambda x, y: (x + y) % p
            self.sub = lambda x, y: (x - y) % p
            self.neg = lambda x: -x % p
            self.mul = operator.and_ if p == 2 else lambda x, y: x * y % p
            self.inv = lambda x: pow(x, p - 2, p)
            self.frob = lambda x: x
            self.pow = lambda x, e: pow(x, e, p)
        else:
            self._tables(p, k, modulus)
        if p == 2:                      # codes are bit vectors
            self.add = self.sub = operator.xor
            self.neg = lambda x: x

    def _tables(self, p: int, k: int, modulus: tuple[int, ...]) -> None:
        from .ratfunc import Poly
        q = p ** k
        n = q - 1
        fp = FieldSpec(p)
        m = Poly._raw(fp, modulus)
        weights = [p ** t for t in range(k)]

        def poly(c):
            return Poly.from_ints(fp, [c // w for w in weights])

        # the smallest code of multiplicative order n generates the tables
        factors = _prime_factors(n)
        g = poly(next(c for c in range(2, q)
                      if not any(pow(poly(c), n // r, m).is_one() for r in factors)))
        log = [0] * q
        exp = [0] * (2 * n)          # doubled, so a sum of two logs needs no mod
        cur = Poly.one(fp)
        for i in range(n):
            c = sum(d * w for d, w in zip(cur.codes, weights))
            exp[i] = exp[i + n] = c
            log[c] = i
            cur = cur * g % m
        self.log, self.exp = log, exp

        def mul(x, y):
            return exp[log[x] + log[y]] if x and y else 0

        def power(x, e):
            if not x:
                return 0 if e else 1
            return exp[log[x] * e % n]

        self.mul, self.pow = mul, power
        self.inv = lambda x: exp[n - log[x]]
        self.frob = ([0] + [exp[log[x] * p % n] for x in range(1, q)]).__getitem__
        if p == 2:
            return
        # Zech logs: 1 + g^m = g^zech[m], or zero where zech[m] = -1
        zech = [0] * n
        for m in range(n):
            c = exp[m]
            d0 = c % p
            one_plus = c - d0 + (d0 + 1) % p
            zech[m] = log[one_plus] if one_plus else -1
        neg_t = [0] + [exp[log[x] + n // 2] for x in range(1, q)]   # -1 = g^(n/2)

        def add(x, y):
            if not x:
                return y
            if not y:
                return x
            lx = log[x]
            z = zech[log[y] - lx]     # a negative index wraps to (log y - log x) mod n
            return exp[lx + z] if z >= 0 else 0

        self.add = add
        self.neg = neg_t.__getitem__
        self.sub = lambda x, y: add(x, neg_t[y])


class FieldSpec:
    """The coefficient field F_q, q = p^k.

    For k > 1 a degree-k modulus over F_p is required and checked for
    irreducibility at construction; k = 1 forbids a modulus; q may not
    exceed MAX_Q.  Specs compare by value, so two specs describing the same
    field interoperate.
    """

    __slots__ = ("p", "k", "modulus", "_arith", "_elems")

    def __init__(self, p: int, k: int = 1, modulus: Sequence[int] | None = None):
        if (isinstance(p, int) and isinstance(k, int) and p > 1 and k >= 1
                and (k > MAX_Q.bit_length() or p ** k > MAX_Q)):
            raise ValueError(f"field size q = {p}^{k} exceeds the limit MAX_Q = {MAX_Q}")
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"p must be a prime, got {p!r}")
        if not isinstance(k, int) or k < 1:
            raise ValueError(f"extension degree k must be >= 1, got {k!r}")
        if k == 1:
            if modulus is not None:
                raise ValueError("a modulus only applies to extension fields (k > 1)")
            self.modulus = None
        else:
            if modulus is None:
                raise ValueError(f"a degree-{k} modulus over F_{p} is required when k > 1")
            from .ratfunc import Poly
            m = Poly.from_ints(FieldSpec(p), [int(c) for c in modulus])
            if m.degree != k:
                raise ValueError(f"modulus must have degree exactly k = {k}")
            m = m.monic()
            if not _is_irreducible(m):
                raise ValueError("modulus is reducible over F_p")
            self.modulus = m.codes
        self.p = p
        self.k = k
        self._arith = None
        self._elems = None

    @property
    def q(self) -> int:
        return self.p ** self.k

    @property
    def arith(self) -> _Arith:
        """The code arithmetic, built on first use."""
        ar = self._arith
        if ar is None:
            ar = self._arith = _Arith(self.p, self.k, self.modulus)
        return ar

    def _make(self, code: int) -> "FqElem":
        elems = self._elems
        if elems is None:
            elems = self._elems = [None] * self.q
        el = elems[code]
        if el is None:
            el = elems[code] = FqElem(self, code)
        return el

    def _digits(self, code: int) -> tuple[int, ...]:
        """The k power-basis coordinates of a code, ascending."""
        p = self.p
        out = []
        for _ in range(self.k):
            out.append(code % p)
            code //= p
        return tuple(out)

    def element(self, value: Union[int, "FqElem", Sequence[int]]) -> "FqElem":
        """Coerce an int (constant) or coordinate sequence into this field."""
        if isinstance(value, FqElem):
            if value.spec != self:
                raise ValueError("element belongs to a different field spec")
            return value
        p, k = self.p, self.k
        if isinstance(value, int):
            return self._make(value % p)
        vals = [int(c) % p for c in value]
        if len(vals) > k:
            raise ValueError(f"too many coordinates for F_{p}^{k}")
        return self._make(sum(d * p ** t for t, d in enumerate(vals)))

    @property
    def zero(self) -> "FqElem":
        return self._make(0)

    @property
    def one(self) -> "FqElem":
        return self._make(1)

    @property
    def gen(self) -> "FqElem":
        """The power-basis generator `a` (k > 1 only)."""
        if self.k == 1:
            raise ValueError("prime fields have no extension generator")
        return self._make(self.p)

    def elements(self):
        """Iterate all q elements, in lexicographic coordinate order (by code)."""
        return map(self._make, range(self.q))

    def spec_text(self) -> str:
        """Canonical text form, e.g. "p=2" or "p=2;k=2;mod=1+a+a^2"."""
        if self.k == 1:
            return f"p={self.p}"
        return f"p={self.p};k={self.k};mod={_coeff_str(self.modulus)}"

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FieldSpec):
            return NotImplemented
        return (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        return f"FieldSpec({self.spec_text()!r})"


class FqElem:
    """An element of F_q, immutable: its spec and its int code."""

    __slots__ = ("spec", "code")

    def __init__(self, spec: FieldSpec, code: int):
        self.spec = spec
        self.code = code

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Power-basis coordinates in [0, p), ascending."""
        return self.spec._digits(self.code)

    def _coerce(self, other) -> "FqElem":
        if type(other) is FqElem:
            if self.spec is not other.spec and self.spec != other.spec:
                raise ValueError("cannot combine elements of different field specs")
            return other
        if isinstance(other, int):
            return self.spec.element(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        spec = self.spec
        return spec._make(spec.arith.add(self.code, other.code))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        spec = self.spec
        return spec._make(spec.arith.sub(self.code, other.code))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        spec = self.spec
        return spec._make(spec.arith.neg(self.code))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        spec = self.spec
        return spec._make(spec.arith.mul(self.code, other.code))

    __rmul__ = __mul__

    def inverse(self) -> "FqElem":
        if not self.code:
            raise ZeroDivisionError("division by zero in F_q")
        spec = self.spec
        return spec._make(spec.arith.inv(self.code))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        spec = self.spec
        return spec._make(spec.arith.pow(self.code, e))

    def frobenius(self) -> "FqElem":
        """x -> x^p; the identity on prime fields."""
        spec = self.spec
        return spec._make(spec.arith.frob(self.code))

    def __bool__(self):
        return self.code != 0

    def __eq__(self, other):
        if isinstance(other, FqElem):
            return self.code == other.code and self.spec == other.spec
        if isinstance(other, int):
            return self == self.spec.element(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.code, self.spec.p, self.spec.k))

    def __str__(self):
        if self.spec.k == 1:
            return str(self.code)
        return _coeff_str(self.coeffs)

    def __repr__(self):
        return f"FqElem({self}, F_{self.spec.q})"
