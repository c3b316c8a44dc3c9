"""Exact complex-rational scalars.

Every coefficient in the engine is a Gaussian rational a + b*i with a, b
exact ``fractions.Fraction`` values.  No floating point enters anywhere.
"""

from __future__ import annotations

import re as _re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]
ScalarLike = Union[int, Fraction, "GaussianRational"]


@dataclass(frozen=True)
class GaussianRational:
    """A complex number a + b*i with exact rational parts.

    ``Fraction`` keeps both parts reduced with positive denominators, so
    equal values always have equal representations.
    """

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    @staticmethod
    def coerce(value: ScalarLike) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(Fraction(value))
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")

    def __add__(self, other: ScalarLike) -> "GaussianRational":
        o = GaussianRational.coerce(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other: ScalarLike) -> "GaussianRational":
        return self + (-GaussianRational.coerce(other))

    def __rsub__(self, other: ScalarLike) -> "GaussianRational":
        return GaussianRational.coerce(other) + (-self)

    def __mul__(self, other: ScalarLike) -> "GaussianRational":
        o = GaussianRational.coerce(other)
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "GaussianRational":
        o = GaussianRational.coerce(other)
        norm = o.re * o.re + o.im * o.im
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / norm,
            (self.im * o.re - self.re * o.im) / norm,
        )

    def __rtruediv__(self, other: ScalarLike) -> "GaussianRational":
        return GaussianRational.coerce(other) / self

    def __pow__(self, exponent: int) -> "GaussianRational":
        if exponent < 0:
            return ONE / (self ** (-exponent))
        result = ONE
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self) -> int:
        # a real value hashes like the int or Fraction it equals
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!s}, {self.im!s})"


ZERO = GaussianRational()
ONE = GaussianRational(Fraction(1))
I_UNIT = GaussianRational(Fraction(0), Fraction(1))
MINUS_ONE = GaussianRational(Fraction(-1))


def gaussian(re: RationalLike = 0, im: RationalLike = 0) -> GaussianRational:
    """Shorthand constructor: ``gaussian(1, -2)`` is 1 - 2i."""
    return GaussianRational(Fraction(re), Fraction(im))


def _format_imaginary(b: Fraction) -> str:
    if b == 1:
        return "i"
    if b == -1:
        return "-i"
    return f"{b}*i"


def format_scalar(value: GaussianRational) -> str:
    """Canonical text for a scalar: ``3``, ``-1/2``, ``i``, ``2*i``, ``1-2*i``."""
    a, b = value.re, value.im
    if b == 0:
        return str(a)
    if a == 0:
        return _format_imaginary(b)
    imag = _format_imaginary(abs(b))
    sign = "+" if b > 0 else "-"
    return f"{a}{sign}{imag}"


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


def parse_scalar(text: str) -> GaussianRational:
    """Parse a scalar literal such as ``3``, ``-1/2``, ``i``, ``2i``, ``1/2+3/4i``.

    Accepts an optional ``*`` between a rational and ``i`` and arbitrary
    whitespace.  Used by the JSON metric loader.
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
            raise ValueError(f"invalid scalar literal {text!r} (at offset {pos})")
        sign = match.group("sign")
        if sign is None and not first:
            raise ValueError(f"invalid scalar literal {text!r}: missing sign before term")
        negate = sign == "-"
        if match.group("lone_i"):
            part = I_UNIT
        else:
            value = Fraction(match.group("num"))
            part = GaussianRational(0, value) if match.group("iunit") else GaussianRational(value)
        total = total - part if negate else total + part
        pos = match.end()
        first = False
    return total
