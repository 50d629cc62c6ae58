"""Exact coefficient fields: the rationals and small prime-power fields.

A scalar over Q is a plain `int` when it is integral and a
`fractions.Fraction` otherwise; over a finite field it is an
`FFElement`.  Every scalar supports `+ - *`, truthiness (zero is
falsy), equality and hashing; an int and the equal Fraction compare and
hash alike.  Division goes through `field.inverse`, never through `/`,
because `int / int` is a float: `RationalField.inverse` returns ±1 as
an int and otherwise `Fraction(1) / x`, as an int when it is integral.
Python ints keep the common case of integral eliminations (±1 pivots,
integral ring bases) off the `Fraction` machinery;
`RationalField.scaled` turns the integral entries of a scaled row back
into ints.  No floating point is used anywhere.

Over a prime field (e = 1) an element also keeps its coefficient as a
plain int.  When both operands belong to the same field instance,
`+ - *` and negation are one int operation mod p, `inv` is
`pow(v, -1, p)` and truthiness tests the int; the result is looked up
in the field's table of interned elements.  That table is filled on
first use and holds at most `_INTERN_MAX` elements, so a large p such
as 1000003 builds no table of p entries.  Operands from equal but
distinct field instances pass a field equality test first and then
take the same int path; every e > 1 field keeps the coefficient tuple
arithmetic.  `FFElement` stays the one scalar class for every finite
field: code that wraps its methods (counters, tracing) sees all finite
field arithmetic, which a prime-field subclass would hide.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import NotPrimeField, ParseError


# Miller-Rabin with the first thirteen primes as bases is exact below
# PRIME_TEST_BOUND, the least strong pseudoprime to all of them
# (Sorenson and Webster, Math. Comp. 86, 2017).  The first twelve are
# not enough there: 318665857834031151167461 = 399165290221 x
# 798330580441 passes every base up to 37.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Whether n is prime, by deterministic Miller-Rabin; n at or past
    PRIME_TEST_BOUND raises NotPrimeField, since the test is not exact
    there."""
    if n >= PRIME_TEST_BOUND:
        raise NotPrimeField(f"{n} is past the primality bound "
                            f"{PRIME_TEST_BOUND}")
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _q(x):
    """A rational, int or Fraction, as an int when it is integral."""
    return x.numerator if x.denominator == 1 else x


class RationalField:
    """The field Q.  A scalar is an `int` when integral and a
    `Fraction` otherwise; every constructor here returns that form."""

    char = 0
    order = None
    zero = 0
    one = 1

    def of_int(self, n: int) -> int:
        return int(n)

    def coerce(self, x):
        if isinstance(x, (int, Fraction)):
            return _q(x)  # a bool becomes the int 0 or 1
        raise TypeError(f"cannot coerce {x!r} into Q")

    def parse(self, text: str):
        try:
            return _q(Fraction(text))
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad rational coefficient {text!r}") from None

    def inverse(self, x):
        """1/x for a nonzero scalar: ±1 stays an int."""
        if x == 1 or x == -1:
            return int(x)
        return _q(Fraction(1) / x)

    def scaled(self, c, vec):
        """The vector c*vec, with its integral entries as ints."""
        return {k: _q(c * x) for k, x in vec.items()}

    def format(self, x) -> str:
        return str(x)

    def random(self, rng):
        return _q(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))

    def random_nonzero(self, rng):
        while True:
            x = self.random(rng)
            if x:
                return x

    def elements(self):
        raise NotPrimeField("Q is infinite and cannot be enumerated")

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")


QQ = RationalField()


# ---------------------------------------------------------------------------
# dense polynomial helpers over Z/p, coefficient lists low degree first

def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mod(a, b, p):
    """Remainder of a modulo monic b, coefficients mod p."""
    a = list(a)
    db = len(b) - 1
    while len(a) - 1 >= db and a:
        c = a[-1]
        if c:
            shift = len(a) - 1 - db
            for i, bc in enumerate(b):
                a[shift + i] = (a[shift + i] - c * bc) % p
        a.pop()
    return _poly_trim(a)


def _monic_polys(deg, p):
    for tail in itertools.product(range(p), repeat=deg):
        yield list(tail) + [1]


def _is_irreducible(f, p):
    deg = len(f) - 1
    for d in range(1, deg // 2 + 1):
        for g in _monic_polys(d, p):
            if not _poly_mod(f, g, p):
                return False
    return True


def _find_modulus(p, e):
    """Lexicographically first monic irreducible of degree e over F_p."""
    for f in _monic_polys(e, p):
        if _is_irreducible(f, p):
            return tuple(f)
    raise AssertionError("no irreducible polynomial found")


# At most this many interned elements per prime field.
_INTERN_MAX = 4096


class _PrimeElements(dict):
    """Interned elements of a prime field by value, filled on first use.

    Holds at most _INTERN_MAX entries, so a large p builds no table of p
    elements; a value met after the table is full gets a fresh element.
    """

    __slots__ = ("field",)

    def __init__(self, field):
        super().__init__()
        self.field = field

    def __missing__(self, v):
        x = FFElement(self.field, (v,))
        if len(self) < _INTERN_MAX:
            self[v] = x
        return x


class FFElement:
    """Element of F_{p^e}, stored as a coefficient tuple of length e in
    the power basis 1, a, ..., a^{e-1} of the defining root a.  Over a
    prime field `_v` holds the one coefficient as an int, else None."""

    __slots__ = ("field", "coeffs", "_v")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs
        self._v = coeffs[0] if field.e == 1 else None

    def _check(self, other):
        if not isinstance(other, FFElement) or other.field != self.field:
            raise TypeError("mixed finite field arithmetic")

    def __add__(self, other):
        fld = self.field
        if type(other) is not FFElement or other.field is not fld:
            self._check(other)
        p = fld.p
        if fld.e == 1:
            return fld._elements[(self._v + other._v) % p]
        return FFElement(fld, tuple((x + y) % p for x, y in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        fld = self.field
        if type(other) is not FFElement or other.field is not fld:
            self._check(other)
        p = fld.p
        if fld.e == 1:
            return fld._elements[(self._v - other._v) % p]
        return FFElement(fld, tuple((x - y) % p for x, y in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        fld = self.field
        p = fld.p
        if fld.e == 1:
            return fld._elements[-self._v % p]
        return FFElement(fld, tuple((-x) % p for x in self.coeffs))

    def __mul__(self, other):
        fld = self.field
        if type(other) is not FFElement or other.field is not fld:
            self._check(other)
        p = fld.p
        e = fld.e
        if e == 1:
            return fld._elements[(self._v * other._v) % p]
        a, b = self.coeffs, other.coeffs
        conv = [0] * (2 * e - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] = (conv[i + j] + x * y) % p
        m = fld.modulus  # monic, length e+1
        for k in range(2 * e - 2, e - 1, -1):
            c = conv[k]
            if c:
                conv[k] = 0
                shift = k - e
                for i in range(e):
                    conv[shift + i] = (conv[shift + i] - c * m[i]) % p
        return FFElement(fld, tuple(conv[:e]))

    def inv(self):
        if not self:
            raise ZeroDivisionError("finite field inverse of zero")
        fld = self.field
        if fld.e == 1:
            return fld._elements[pow(self._v, -1, fld.p)]
        return self ** (fld.order - 2)

    def __truediv__(self, other):
        if type(other) is not FFElement or other.field is not self.field:
            self._check(other)
        return self * other.inv()

    def __pow__(self, n):
        if n < 0:
            return self.inv() ** -n
        result = self.field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __bool__(self):
        v = self._v
        return any(self.coeffs) if v is None else v != 0

    def __eq__(self, other):
        return (isinstance(other, FFElement) and other.field == self.field
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.field.p, self.field.e, self.coeffs))

    def __repr__(self):
        return self.field.format(self)


class FiniteField:
    """F_{p^e} for a prime p.  e = 1 gives the prime field."""

    def __init__(self, p: int, e: int = 1):
        if not is_prime(p):
            raise NotPrimeField(f"{p} is not prime")
        if e < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.e = e
        self.order = p ** e
        self.char = p
        self.modulus = _find_modulus(p, e) if e > 1 else None
        self._elements = _PrimeElements(self) if e == 1 else None
        self.zero = self._make((0,) * e)
        self.one = self._make((1,) + (0,) * (e - 1))

    def _make(self, coeffs) -> FFElement:
        if self.e == 1:
            return self._elements[coeffs[0]]
        return FFElement(self, coeffs)

    def of_int(self, n: int) -> FFElement:
        return self._make((n % self.p,) + (0,) * (self.e - 1))

    def coerce(self, x) -> FFElement:
        if isinstance(x, FFElement):
            if x.field == self:
                return x
            if x.field.p == self.p and x.field.e == 1:
                return self.embed(x)
            raise TypeError("element of a different finite field")
        if isinstance(x, int):
            return self.of_int(x)
        raise TypeError(f"cannot coerce {x!r} into F_{self.order}")

    def inverse(self, x: FFElement) -> FFElement:
        return x.inv()

    def scaled(self, c, vec):
        """The vector c*vec."""
        return {k: c * x for k, x in vec.items()}

    def embed(self, x: FFElement) -> FFElement:
        """Embed a prime field scalar into this extension."""
        return self._make((x.coeffs[0],) + (0,) * (self.e - 1))

    def extension(self, e: int) -> "FiniteField":
        if self.e != 1:
            raise NotPrimeField("base change is defined from a prime field only")
        return FiniteField(self.p, e)

    def parse(self, text: str) -> FFElement:
        try:
            return self.of_int(int(text))
        except ValueError:
            raise NotPrimeField(
                f"only integer coefficients are accepted over F_{self.order}")

    def format(self, x: FFElement) -> str:
        if self.e == 1:
            return str(x.coeffs[0])
        parts = []
        for i, c in enumerate(x.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                var = "a" if i == 1 else f"a^{i}"
                parts.append(var if c == 1 else f"{c}{var}")
        return "+".join(parts) if parts else "0"

    def random(self, rng) -> FFElement:
        return self._make(tuple(rng.randrange(self.p) for _ in range(self.e)))

    def random_nonzero(self, rng) -> FFElement:
        while True:
            x = self.random(rng)
            if x:
                return x

    def elements(self):
        for coeffs in itertools.product(range(self.p), repeat=self.e):
            yield self._make(coeffs)

    def __repr__(self):
        return f"F{self.p}" if self.e == 1 else f"F{self.p}^{self.e}"

    def __eq__(self, other):
        return (isinstance(other, FiniteField) and other.p == self.p
                and other.e == self.e)

    def __hash__(self):
        return hash(("FiniteField", self.p, self.e))


def rationals() -> RationalField:
    return QQ


def prime_field(p: int) -> FiniteField:
    return FiniteField(p, 1)


def parse_field(text: str):
    """Parse a field label: "Q" or "F<p>" for a prime p."""
    text = text.strip()
    if text in ("Q", "QQ"):
        return QQ
    if text.startswith("F"):
        try:
            p = int(text[1:])
        except ValueError:
            raise NotPrimeField(f"bad field label {text!r}")
        return FiniteField(p, 1)
    raise NotPrimeField(f"bad field label {text!r} (expected Q or F<p>)")


def format_field(field) -> str:
    if isinstance(field, RationalField):
        return "Q"
    if isinstance(field, FiniteField) and field.e == 1:
        return f"F{field.p}"
    if isinstance(field, FiniteField):
        return f"F{field.p}^{field.e}"
    raise TypeError(f"unknown field {field!r}")
