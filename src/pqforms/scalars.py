"""Exact complex-rational scalars.

Every coefficient in the engine is a Gaussian rational (a + b*i)/d held as
three Python integers.  No floating point enters anywhere.  ``fractions``
is imported only on the paths that may meet a ``Fraction``, so a run that
parses, computes and prints never loads it (nor ``decimal``, which it
imports).
"""

from __future__ import annotations

import re as _re
from math import gcd, lcm, log2
from operator import mul
from typing import TYPE_CHECKING, Callable, Optional, Sequence, TypeVar, Union

if TYPE_CHECKING:
    from fractions import Fraction

RationalLike = Union[int, "Fraction"]
ScalarLike = Union[int, "Fraction", "GaussianRational"]
T = TypeVar("T")


class GaussianRational:
    """A complex number (a + b*i)/d with integers a, b and d.

    The triple is kept normalised, d > 0 and gcd(a, b, d) == 1, so equal
    values always have equal triples (rational arithmetic on reduced
    integer numerators and denominators, Knuth, TAOCP vol. 2, 4.5.1).
    ``re`` and ``im`` are the reduced ``Fraction`` parts.  The constructor
    takes each part as an int (a bool too) or a ``Fraction``; anything
    else, such as a float or a string, is a TypeError, as in ``coerce``.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0) -> None:
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        from fractions import Fraction

        if bad := [part for part in (re, im) if not isinstance(part, (int, Fraction))]:
            raise TypeError(f"cannot interpret {bad[0]!r} as a Gaussian rational")
        re, im = Fraction(re), Fraction(im)
        # over the lcm of two reduced denominators the triple is already reduced
        d = lcm(re.denominator, im.denominator)
        self._a = re.numerator * (d // re.denominator)
        self._b = im.numerator * (d // im.denominator)
        self._d = d

    @property
    def re(self) -> "Fraction":
        from fractions import Fraction

        return Fraction(self._a, self._d)

    @property
    def im(self) -> "Fraction":
        from fractions import Fraction

        return Fraction(self._b, self._d)

    @staticmethod
    def coerce(value: ScalarLike) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, int):
            return _triple(int(value), 0, 1)
        from fractions import Fraction

        if isinstance(value, Fraction):
            return _triple(value.numerator, 0, value.denominator)
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")

    def __add__(self, other: ScalarLike) -> "GaussianRational":
        return _signed_sum(self, other, 1)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return _triple(-self._a, -self._b, self._d)

    def __sub__(self, other: ScalarLike) -> "GaussianRational":
        return _signed_sum(self, other, -1)

    def __rsub__(self, other: ScalarLike) -> "GaussianRational":
        return _signed_sum(GaussianRational.coerce(other), self, -1)

    def __mul__(self, other: ScalarLike) -> "GaussianRational":
        if type(other) is not GaussianRational:
            other = GaussianRational.coerce(other)
        a, b, c, e = self._a, self._b, other._a, other._b
        return _reduced(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "GaussianRational":
        if type(other) is not GaussianRational:
            other = GaussianRational.coerce(other)
        a, b, c, e = self._a, self._b, other._a, other._b
        norm = c * c + e * e
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        # (a + b*i)/d / ((c + e*i)/f) = f*(a + b*i)*(c - e*i) / (d*(c^2 + e^2))
        f = other._d
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, self._d * norm)

    def __rtruediv__(self, other: ScalarLike) -> "GaussianRational":
        return GaussianRational.coerce(other) / self

    def __pow__(self, exponent: int) -> "GaussianRational":
        """``_power`` for exponent >= 1, and ONE / self ** -exponent below 0."""
        if exponent < 0:
            return ONE / self ** -exponent
        return _power(self, exponent) if exponent else ONE

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GaussianRational):
            return self._a == other._a and self._b == other._b and self._d == other._d
        # with b == 0 the invariant gives gcd(a, d) == 1: a/d is a reduced fraction
        if isinstance(other, int):
            return self._b == 0 and self._d == 1 and self._a == other
        from fractions import Fraction

        if isinstance(other, Fraction):
            return self._b == 0 and self._a == other.numerator and self._d == other.denominator
        return NotImplemented

    def __hash__(self) -> int:
        # a real value hashes like the int or Fraction it equals
        if self._b == 0 and self._d == 1:
            return hash(self._a)
        return hash(self.re) if self._b == 0 else hash((self.re, self.im))

    def conjugate(self) -> "GaussianRational":
        return _triple(self._a, -self._b, self._d)

    def is_zero(self) -> bool:
        return not (self._a or self._b)

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!s}, {self.im!s})"


_new = object.__new__


def _triple(a: int, b: int, d: int) -> GaussianRational:
    """The scalar of a triple that already satisfies the invariant."""
    value = _new(GaussianRational)
    value._a = a
    value._b = b
    value._d = d
    return value


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """The scalar (a + b*i)/d for any d > 0, reduced by one gcd."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    return _triple(a, b, d)


def _signed_sum(x: GaussianRational, y: ScalarLike, sign: int) -> GaussianRational:
    """x + sign * y on the triples, with sign 1 or -1."""
    if type(y) is not GaussianRational:
        y = GaussianRational.coerce(y)
    d, f = x._d, y._d
    if d == f:
        return _reduced(x._a + sign * y._a, x._b + sign * y._b, d)
    return _reduced(x._a * f + sign * y._a * d, x._b * f + sign * y._b * d, d * f)


def _power(base: T, exponent: int, multiply: Callable[[T, T], T] = mul, result: Optional[T] = None) -> T:
    """base ** exponent, exponent >= 1, by right-to-left binary powering
    (Knuth, TAOCP vol. 2, 4.6.3): low bit first, the result takes the base
    at each set bit (the base itself at the first, unless ``result`` is
    given) and the base is squared only before a later set bit.  Every
    product is ``multiply(left, right)``; exponent 0 returns ``result``."""
    while True:
        if exponent & 1:
            result = base if result is None else multiply(result, base)
        exponent >>= 1
        if not exponent:
            return result
        base = multiply(base, base)


def _height(values: Sequence[GaussianRational]) -> float:
    """log2(D * N), with D the lcm of the denominators and N the sum of |re| + |im|
    times D; 0 for none.  A product's coefficients have at most its factors' heights summed."""
    den = lcm(*[c._d for c in values])
    return log2(den * sum((abs(c._a) + abs(c._b)) * (den // c._d) for c in values) or 1)


def _height_of(value: GaussianRational) -> float:
    """``_height([value])`` of one nonzero scalar, without the lists."""
    return log2(value._d * (abs(value._a) + abs(value._b)))


ZERO = GaussianRational()
ONE = GaussianRational(1)
I_UNIT = GaussianRational(0, 1)
MINUS_ONE = GaussianRational(-1)


def gaussian(re: RationalLike = 0, im: RationalLike = 0) -> GaussianRational:
    """Shorthand constructor: ``gaussian(1, -2)`` is 1 - 2i."""
    return GaussianRational(re, im)


def _format_rational(a: int, d: int) -> str:
    """``str(Fraction(a, d))`` for d > 0: ``a/d`` in lowest terms, ``a`` when d divides a."""
    g = gcd(a, d)
    return str(a // g) if g == d else f"{a // g}/{d // g}"


def format_scalar(value: GaussianRational) -> str:
    """Canonical text for a scalar: ``3``, ``-1/2``, ``i``, ``2*i``, ``1-2*i``."""
    a, b, d = value._a, value._b, value._d
    if b == 0:
        return _format_rational(a, d)
    imag = "i" if abs(b) == d else f"{_format_rational(abs(b), d)}*i"
    if a == 0:
        return imag if b > 0 else f"-{imag}"
    return f"{_format_rational(a, d)}{'+' if b > 0 else '-'}{imag}"


def _format_factor(value: GaussianRational) -> str:
    """``format_scalar`` as a factor of a product: parenthesized when both parts are nonzero."""
    text = format_scalar(value)
    return f"({text})" if value._a and value._b else text


def _positive(value: GaussianRational) -> bool:
    """Whether the value is a positive real number."""
    return value._b == 0 and value._a > 0


_SCALAR_TOKEN = _re.compile(
    r"""
    (?P<sign>[+-])?\s*
    (?:
        (?P<num>\d+(?:/\d+)?)\s*(?:\*?\s*(?P<iunit>i))?
        |
        (?P<lone_i>i)
    )
    \s*
    """,
    _re.VERBOSE,
)


def _quoted(text: str) -> str:
    """``repr(text)``, cut to its first 40 characters and its length when it
    is longer, so a message about a huge literal stays one short line."""
    return repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"


def parse_scalar(text: str) -> GaussianRational:
    """Parse a scalar literal such as ``3``, ``-1/2``, ``i``, ``2i``, ``1/2+3/4i``.

    Accepts an optional ``*`` between a rational and ``i`` and arbitrary
    whitespace.  Each rational is built from its integers by ``_reduced``,
    as the DSL builds its numbers, and a zero denominator or an integer of
    more digits than ``int()`` converts from text is a ValueError.  A
    message quotes a literal of more than 40 characters by its first 40
    and its length (``_quoted``).
    Used by the JSON metric loader and by ``obstruction``'s directions.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty scalar literal")
    pos = 0
    total = ZERO
    first = True
    while pos < len(s):
        match = _SCALAR_TOKEN.match(s, pos)
        if not match or match.end() == pos:
            raise ValueError(f"invalid scalar literal {_quoted(text)} (at offset {pos})")
        sign = match.group("sign")
        if sign is None and not first:
            raise ValueError(f"invalid scalar literal {_quoted(text)}: missing sign before term")
        negate = sign == "-"
        if match.group("lone_i"):
            part = I_UNIT
        else:
            num, _, den = match.group("num").partition("/")
            try:
                num, d = int(num), int(den or 1)
            except ValueError:  # more digits than int() converts from text
                raise ValueError(f"invalid scalar literal {_quoted(text)}: too many digits") from None
            if not d:
                raise ValueError(f"invalid scalar literal {_quoted(text)}: zero denominator")
            part = _reduced(0, num, d) if match.group("iunit") else _reduced(num, 0, d)
        total = total - part if negate else total + part
        pos = match.end()
        first = False
    return total
