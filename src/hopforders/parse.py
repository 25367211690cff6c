"""The expression grammar: field specs, elements of K and matrices.

Grammar (whitespace-insensitive):
  integer      an optional - and a run of decimal digits (str.isdecimal)
  field spec   p=<prime>  or  p=<prime>;k=<deg>;mod=<poly in a>
  element      expressions in the uniformizer T over F_q with + - * / ^ ( ),
               decimal integer coefficients (k = 1) or polynomials in a (k > 1);
               T^-2 is sugar for 1/T^2
  matrix       [entry,entry;entry,entry]  (rows by ';', entries by ',')

A modulus is an element over F_p with `a` in the role of T; it must come out
a polynomial.  Two limits bound the work any input can cause, and a breach
raises a ParseError that names the limit:
  MAX_NESTING  parentheses nested deeper than this
  MAX_DEGREE   a numerator or denominator of larger degree; the degree a
               power would reach is checked before the power is computed
"""

from __future__ import annotations

import operator

from .fields import FieldSpec
from .matrix import Mat
from .ratfunc import RatFunc

MAX_NESTING = 64
MAX_DEGREE = 512


class ParseError(ValueError):
    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} at position {position}"
        super().__init__(message)


def parse_int(text: str, at: int | None = None) -> int:
    """The grammar's integer, at position `at` of its source: int() alone would
    also take a '+', '_' or blanks, and raise a bare ValueError on more digits
    than sys.get_int_max_str_digits()."""
    digits = text[1:] if text.startswith("-") else text
    if not digits.isdecimal():
        raise ParseError(f"bad integer {text!r}", at)
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"integer of {len(digits)} digits is too long", at) from None


# -- tokenizer --

# The kind of each one-character token; a number is a run of str.isdecimal, read by parse_int
_KIND = {"T": "name", "a": "name", **dict.fromkeys("+-*/^()", "op")}


def _tokenize(src: str):
    tokens = []
    i, n = 0, len(src)
    while i < n:
        c, start = src[i], i
        i += 1
        if c.isdecimal():
            while i < n and src[i].isdecimal():
                i += 1
            tokens.append(("num", parse_int(src[start:i], start), start))
        elif c in _KIND:
            tokens.append((_KIND[c], c, start))
        elif not c.isspace():
            raise ParseError(f"unexpected character {c!r}", start)
    tokens.append(("end", None, n))
    return tokens


def _degree(x: RatFunc) -> int:
    return max(x.num.degree, x.den.degree)


# operator.add and the rest look up the operand's method when they are called
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


class _Parser:
    """Recursive descent over the element grammar, evaluating in K.

    `var` names the indeterminate: T for elements, a for a modulus over F_p.
    """

    def __init__(self, src: str, spec: FieldSpec, var: str = "T"):
        self.spec = spec
        self.var = var
        self.tokens = _tokenize(src)
        self.pos = 0
        self.nesting = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def bounded(self, value: RatFunc, at: int) -> RatFunc:
        if _degree(value) > MAX_DEGREE:
            raise ParseError(f"degree {_degree(value)} exceeds MAX_DEGREE = {MAX_DEGREE}", at)
        return value

    def parse(self) -> RatFunc:
        value = self.expr()
        kind, _, at = self.peek()
        if kind != "end":
            raise ParseError("trailing input", at)
        return value

    def binary(self, ops: str, operand) -> RatFunc:
        """A left-associative chain of operands joined by the operators in `ops`."""
        value = operand()
        while True:
            kind, val, at = self.peek()
            if kind != "op" or val not in ops:
                return value
            self.next()
            rhs = operand()
            if val == "/" and rhs.is_zero():
                raise ParseError("division by zero", at)
            value = self.bounded(_BINARY[val](value, rhs), at)

    def expr(self) -> RatFunc:
        return self.binary("+-", self.term)

    def term(self) -> RatFunc:
        return self.binary("*/", self.unary)

    def unary(self) -> RatFunc:
        negate = False
        while self.peek()[:2] == ("op", "-"):
            self.next()
            negate = not negate
        value = self.power()
        return -value if negate else value

    def power(self) -> RatFunc:
        base = self.atom()
        kind, val, at = self.peek()
        if kind == "op" and val == "^":
            self.next()
            e = self.signed_int()
            if base.is_zero() and e < 0:
                raise ParseError("zero raised to a negative power", at)
            if abs(e) * _degree(base) > MAX_DEGREE:
                raise ParseError(f"power of degree {abs(e) * _degree(base)} exceeds "
                                 f"MAX_DEGREE = {MAX_DEGREE}", at)
            return base ** e
        return base

    def signed_int(self) -> int:
        negate = self.peek()[:2] == ("op", "-")
        if negate:
            self.next()
        kind, val, at = self.next()
        if kind != "num":
            raise ParseError("expected an integer exponent", at)
        return -val if negate else val

    def atom(self) -> RatFunc:
        kind, val, at = self.next()
        if kind == "num":
            return RatFunc.constant(self.spec, val)
        if kind == "name":
            if val == self.var:
                return RatFunc.pi_power(self.spec, 1)
            if self.var == "a":
                raise ParseError(f"unexpected symbol {val!r}, expected 'a'", at)
            if self.spec.k == 1:
                raise ParseError("symbol 'a' needs an extension field (k > 1)", at)
            return RatFunc.constant(self.spec, self.spec.gen)
        if kind == "op" and val == "(":
            if self.nesting == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than MAX_NESTING = {MAX_NESTING}", at)
            self.nesting += 1
            value = self.expr()
            kind, val, at = self.next()
            if (kind, val) != ("op", ")"):
                raise ParseError("expected ')'", at)
            self.nesting -= 1
            return value
        raise ParseError("expected a value", at)


def parse_element(src: str, spec: FieldSpec) -> RatFunc:
    """Parse the element grammar into a canonical RatFunc."""
    return _Parser(src, spec).parse()


def parse_matrix(src: str, spec: FieldSpec) -> Mat:
    """Parse [e,e;e,e] into a square matrix."""
    text = src.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ParseError("matrix must be wrapped in [ ... ]", 0)
    body = text[1:-1]
    if not body.strip():
        raise ParseError("empty matrix", 1)
    rows = body.split(";")
    parsed = []
    width = None
    for r, row_src in enumerate(rows):
        entries = row_src.split(",")
        if width is None:
            width = len(entries)
        elif len(entries) != width:
            raise ParseError(f"ragged matrix: row {r + 1} has {len(entries)} "
                             f"entries, expected {width}")
        parsed_row = []
        for c, entry_src in enumerate(entries):
            try:
                parsed_row.append(parse_element(entry_src, spec))
            except ParseError as exc:
                raise ParseError(f"entry ({r + 1},{c + 1}): {exc}") from exc
        parsed.append(parsed_row)
    if len(parsed) != width:
        raise ParseError(f"matrix must be square, got {len(parsed)}x{width}")
    return Mat(parsed)


def _field_spec(*args) -> FieldSpec:
    try:
        return FieldSpec(*args)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _parse_modulus(src: str, fp: FieldSpec) -> list[int]:
    """Coefficients of a modulus polynomial in `a` over F_p, ascending."""
    try:
        value = _Parser(src, fp, var="a").parse()
    except ParseError as exc:
        raise ParseError(f"modulus: {exc}") from exc
    if not value.den.is_one():
        raise ParseError("modulus must be a polynomial in a")
    return list(value.num.codes)   # over F_p a code is the residue


def parse_field_spec(text: str) -> FieldSpec:
    """Parse "p=2" or "p=2;k=2;mod=a^2+a+1"."""
    parts = [part.strip() for part in text.strip().split(";") if part.strip()]
    fields: dict[str, str] = {}
    for part in parts:
        if "=" not in part:
            raise ParseError(f"bad field-spec fragment {part!r}")
        key, _, value = part.partition("=")
        key = key.strip()
        if key in fields:
            raise ParseError(f"duplicate field-spec key {key!r}")
        fields[key] = value.strip()
    unknown = set(fields) - {"p", "k", "mod"}
    if unknown:
        raise ParseError(f"unknown field-spec keys {sorted(unknown)}")
    if "p" not in fields:
        raise ParseError("field spec needs p=<prime>")
    try:
        p, k = parse_int(fields["p"]), parse_int(fields.get("k", "1"))
    except ParseError as exc:
        raise ParseError(f"field spec: {exc}") from exc
    modulus = None
    if "mod" in fields:
        modulus = _parse_modulus(fields["mod"], _field_spec(p))
    return _field_spec(p, k, modulus)
