"""Exact arithmetic in small finite fields F_q, q = p^k.

A :class:`FieldSpec` pins the coefficient field down once: the prime p, the
extension degree k and, for k > 1, the monic irreducible modulus presenting
F_q = F_p[a]/(modulus).  :class:`FqElem` is an immutable element written in
the power basis of the generator `a`.  Elements of different specs never
combine.

The Frobenius map x -> x^p lives here; it is the coefficient-level piece of
the entry-wise twist applied to matrices over K.
"""

from __future__ import annotations

from typing import Sequence, Union

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


# -- helpers on F_p[x] with plain-int coefficient lists (ascending powers) --

def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _poly_divmod(a: Sequence[int], b: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = [c % p for c in a]
    _trim(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv_lead = pow(b[-1], p - 2, p)
    while len(a) >= len(b) and a:
        c = (a[-1] * inv_lead) % p
        if c:
            d = len(a) - len(b)
            q[d] = c
            for i, bi in enumerate(b):
                a[d + i] = (a[d + i] - c * bi) % p
        a.pop()
        _trim(a)
    return q, a


def _is_irreducible(m: Sequence[int], p: int) -> bool:
    """Brute-force divisor search; fine for the small k used here."""
    k = len(m) - 1
    for d in range(1, k // 2 + 1):
        for idx in range(p ** d):
            cand = [0] * (d + 1)
            v = idx
            for i in range(d):
                cand[i] = v % p
                v //= p
            cand[d] = 1  # monic
            if not _poly_divmod(m, cand, p)[1]:
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


class FieldSpec:
    """The coefficient field F_q, q = p^k.

    For k > 1 a degree-k modulus over F_p is required and checked for
    irreducibility at construction; k = 1 forbids a modulus; q may not
    exceed MAX_Q.  Specs compare by value, so two specs describing the same
    field interoperate.
    """

    __slots__ = ("p", "k", "modulus", "_cache")

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
            m = _trim([int(c) % p for c in modulus])
            if len(m) - 1 != k:
                raise ValueError(f"modulus must have degree exactly k = {k}")
            if m[-1] != 1:
                inv = pow(m[-1], p - 2, p)
                m = [(c * inv) % p for c in m]
            if not _is_irreducible(m, p):
                raise ValueError("modulus is reducible over F_p")
            self.modulus = tuple(m)
        self.p = p
        self.k = k
        self._cache: dict = {}

    @property
    def q(self) -> int:
        return self.p ** self.k

    def _make(self, coeffs: tuple[int, ...]) -> "FqElem":
        cache = self._cache
        el = cache.get(coeffs)
        if el is None:
            el = FqElem(self, coeffs)
            if len(cache) < 1 << 16:
                cache[coeffs] = el
        return el

    def element(self, value: Union[int, "FqElem", Sequence[int]]) -> "FqElem":
        """Coerce an int (constant) or coordinate sequence into this field."""
        if isinstance(value, FqElem):
            if value.spec != self:
                raise ValueError("element belongs to a different field spec")
            return value
        p, k = self.p, self.k
        if isinstance(value, int):
            coeffs = (value % p,) + (0,) * (k - 1)
        else:
            vals = [int(c) % p for c in value]
            if len(vals) > k:
                raise ValueError(f"too many coordinates for F_{p}^{k}")
            coeffs = tuple(vals) + (0,) * (k - len(vals))
        return self._make(coeffs)

    @property
    def zero(self) -> "FqElem":
        return self.element(0)

    @property
    def one(self) -> "FqElem":
        return self.element(1)

    @property
    def gen(self) -> "FqElem":
        """The power-basis generator `a` (k > 1 only)."""
        if self.k == 1:
            raise ValueError("prime fields have no extension generator")
        return self.element((0, 1))

    def elements(self):
        """Iterate all q elements, in lexicographic coordinate order."""
        p, k = self.p, self.k
        for idx in range(self.q):
            v = idx
            coeffs = []
            for _ in range(k):
                coeffs.append(v % p)
                v //= p
            yield self._make(tuple(coeffs))

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


def _check_specs(a: "FqElem", b: "FqElem") -> None:
    if a.spec is not b.spec and a.spec != b.spec:
        raise ValueError("cannot combine elements of different field specs")


class FqElem:
    """An element of F_q, immutable, with coordinates in [0, p)."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: FieldSpec, coeffs: tuple[int, ...]):
        self.spec = spec
        self.coeffs = coeffs

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
        p = spec.p
        if spec.k == 1:
            return spec._make(((self.coeffs[0] + other.coeffs[0]) % p,))
        return spec._make(tuple((x + y) % p for x, y in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        spec = self.spec
        p = spec.p
        if spec.k == 1:
            return spec._make(((self.coeffs[0] - other.coeffs[0]) % p,))
        return spec._make(tuple((x - y) % p for x, y in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        spec = self.spec
        p = spec.p
        return spec._make(tuple((-x) % p for x in self.coeffs))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        spec = self.spec
        p = spec.p
        if spec.k == 1:
            return spec._make(((self.coeffs[0] * other.coeffs[0]) % p,))
        prod = _poly_mul(self.coeffs, other.coeffs, p)
        red = _poly_divmod(prod, spec.modulus, p)[1]
        return spec._make(tuple(red) + (0,) * (spec.k - len(red)))

    __rmul__ = __mul__

    def inverse(self) -> "FqElem":
        if not self:
            raise ZeroDivisionError("division by zero in F_q")
        spec = self.spec
        if spec.k == 1:
            return spec._make((pow(self.coeffs[0], spec.p - 2, spec.p),))
        return self ** (spec.q - 2)  # Fermat: x^(q-1) = 1 on F_q^x

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
        result = self.spec.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def frobenius(self) -> "FqElem":
        """x -> x^p; the identity on prime fields."""
        if self.spec.k == 1:
            return self
        return self ** self.spec.p

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, FqElem):
            return self.coeffs == other.coeffs and self.spec == other.spec
        if isinstance(other, int):
            return self == self.spec.element(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.coeffs, self.spec.p, self.spec.k))

    def __str__(self):
        if self.spec.k == 1:
            return str(self.coeffs[0])
        return _coeff_str(self.coeffs)

    def __repr__(self):
        return f"FqElem({self}, F_{self.spec.q})"
