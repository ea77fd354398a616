"""Scalar backends shared by every algebra in this package.

Two backends, selected by the component values themselves rather than by a
type parameter: exact values are ``int``/``fractions.Fraction`` (anything
registered as :class:`numbers.Rational`), floating values are ``float``.
Mixed arithmetic degrades to float, so an element stays exact as long as
every ingredient is exact.

:class:`RationalComplex` fills the gap the stdlib leaves open: a complex
number whose real and imaginary parts are exact rationals.  It exposes the
same ``.real``/``.imag``/``.conjugate()`` surface as the builtin ``complex``
so the two can be used interchangeably by the split/decomposition code.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Scalar = Union[int, Fraction, float]


class ZeroInput(ValueError):
    """The operation is undefined at zero."""


class InvariantError(RuntimeError):
    """An internal invariant failed: a bug in this package, not bad input.

    Raised where ``assert`` would do, since ``python -O`` strips asserts."""


def is_exact(value) -> bool:
    """True when the value carries no floating-point component."""
    if isinstance(value, RationalComplex):
        return True
    if isinstance(value, complex):
        return False
    return isinstance(value, numbers.Rational)


HALF = Fraction(1, 2)  # Fraction * float -> float, so this is backend-neutral


def binary_power(base, n: int, one):
    """``one * base**n`` by square-and-multiply, for an integer n >= 0.

    Takes one product per set bit of n and one squaring per bit below the
    top one, so ``base**2`` costs two products (``one * base``, then the
    square) and ``base**0`` none.
    """
    out = one
    while True:
        if n & 1:
            out = out * base
        n >>= 1
        if not n:
            return out
        base = base * base


@dataclass(frozen=True)
class RationalComplex:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def coerce(value) -> "RationalComplex":
        if isinstance(value, RationalComplex):
            return value
        if isinstance(value, numbers.Rational):
            return RationalComplex(Fraction(value), Fraction(0))
        raise TypeError(f"cannot coerce {value!r} to RationalComplex")

    # .real/.imag mirror the builtin complex API.
    @property
    def real(self) -> Fraction:
        return self.re

    @property
    def imag(self) -> Fraction:
        return self.im

    def conjugate(self) -> "RationalComplex":
        return RationalComplex(self.re, -self.im)

    def __add__(self, other):
        if isinstance(other, (complex, float)):
            return complex(self) + other
        other = RationalComplex.coerce(other)
        return RationalComplex(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return RationalComplex(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (complex, float)):
            return complex(self) * other
        other = RationalComplex.coerce(other)
        return RationalComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (complex, float)):
            return complex(self) / other
        other = RationalComplex.coerce(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero RationalComplex")
        return RationalComplex(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        return RationalComplex.coerce(other) / self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers are exact")
        return binary_power(self, n, RationalComplex(Fraction(1)))

    def __eq__(self, other):
        if isinstance(other, RationalComplex):
            return self.re == other.re and self.im == other.im
        if isinstance(other, numbers.Rational):
            return self.im == 0 and self.re == other
        if isinstance(other, (complex, float)):
            # exact comparison (floats are exact binary rationals), keeping
            # equality consistent with hashing
            other = complex(other)
            if not (math.isfinite(other.real) and math.isfinite(other.imag)):
                return False
            return self.re == Fraction(other.real) and self.im == Fraction(other.imag)
        return NotImplemented

    def __hash__(self):
        return hash(complex(self)) if self.im else hash(self.re)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __abs__(self) -> float:
        return abs(complex(self))

    def __repr__(self):
        return f"RationalComplex({self.re!s}, {self.im!s})"


def make_complex(re, im):
    """Pair two scalars into the matching complex backend."""
    if is_exact(re) and is_exact(im):
        return RationalComplex(Fraction(re), Fraction(im))
    return complex(re, im)


def times_i(z):
    """Multiply by the imaginary unit without losing exactness."""
    if isinstance(z, RationalComplex):
        return RationalComplex(-z.im, z.re)
    return complex(z) * 1j


def abs_sq(z):
    """|z|^2, exact for RationalComplex."""
    if isinstance(z, RationalComplex):
        return z.re * z.re + z.im * z.im
    return z.real * z.real + z.imag * z.imag


def parse_scalar(text: str) -> Scalar:
    """Parse 'p/q', integer, or decimal-float literals."""
    text = text.strip()
    if "/" in text:
        return Fraction(text)
    if any(ch in text for ch in ".eE") and not text.lstrip("+-").isdigit():
        return float(text)
    return int(text)


def format_scalar(value) -> str:
    """Deterministic text form: rationals verbatim, floats at 17 significant digits."""
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, Fraction):
        return str(value.numerator) if value.denominator == 1 else str(value)
    return str(value)


def scalar_norm(values) -> float:
    """Euclidean size of a coefficient vector, for float tolerances."""
    return math.sqrt(sum(float(v) * float(v) for v in values))
