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

:class:`Element` gives the four element classes their shared operators;
:func:`vanishing` is their one zero-divisor rule and :func:`scan_terms`
their one scanner for literals.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, neg, sub
from typing import Union

Scalar = Union[int, Fraction, float]

NULLIFIC_RTOL = 1e-12        # float zero-divisor test, see :func:`vanishing`
SOLVE_RESIDUAL_RTOL = 1e-9   # substitution check of a computed solution


class ComputationalError(Exception):
    """Marker base of the errors that valid input can meet in a computation
    (zero input, not invertible, no convergence, ...), on which the CLI
    exits 1.  Each such class lists it first and keeps a builtin base, such
    as ``ValueError``, for callers that catch that."""


class ZeroInput(ComputationalError, ValueError):
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


def is_real_scalar(value) -> bool:
    """A real coefficient; a complex value, exact ``RationalComplex`` too, is
    not one, since the split algebras' imaginary units are basis elements."""
    return isinstance(value, (float, numbers.Rational))


HALF = Fraction(1, 2)  # Fraction * float -> float, so this is backend-neutral


def binary_power(base, n: int, one, product=mul):
    """``one * base**n`` by square-and-multiply, for an integer n >= 0, each
    product taken by ``product``.

    Takes one product per set bit of n and one squaring per bit below the
    top one, so ``base**2`` costs two products (``one * base``, then the
    square) and ``base**0`` none.
    """
    out = one
    while True:
        if n & 1:
            out = product(out, base)
        n >>= 1
        if not n:
            return out
        base = product(base, base)


class Element:
    """Operators shared by the element classes.  A subclass supplies
    ``components``; ``_new``, an element of self's algebra from a sequence
    of components; ``__mul__``; ``_from_scalar``, a scalar as an element of
    self's algebra or NotImplemented; and ``_check`` where two elements of
    the class can belong to different algebras."""

    def is_exact(self) -> bool:
        return all(is_exact(c) for c in self.components())

    def is_zero(self) -> bool:
        return not any(self.components())

    def __bool__(self):
        return not self.is_zero()

    def _check(self, other):
        """Raise when ``other``, of self's class, is in another algebra."""

    def _coerce(self, value):
        """``value`` as an element of self's algebra, or NotImplemented."""
        if isinstance(value, self.__class__):
            self._check(value)
            return value
        return self._from_scalar(value)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._new(map(add, self.components(), other.components()))

    __radd__ = __add__

    def __neg__(self):
        return self._new(map(neg, self.components()))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._new(map(sub, self.components(), other.components()))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._new(map(sub, other.components(), self.components()))

    def __rmul__(self, other):
        """The scalar stays on the left, as noncommutative algebras need."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        return binary_power(self, n, self._from_scalar(1))


@dataclass(frozen=True)
class RationalComplex:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def coerce(value) -> "RationalComplex":
        out = _exact(value)
        if out is NotImplemented:
            raise TypeError(f"cannot coerce {value!r} to RationalComplex")
        return out

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
        other = _exact(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalComplex(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return RationalComplex(-self.re, -self.im)

    def __sub__(self, other):
        if isinstance(other, (complex, float)):
            return complex(self) - other
        other = _exact(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalComplex(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        if isinstance(other, (complex, float)):
            return other - complex(self)
        other = _exact(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalComplex(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        if isinstance(other, (complex, float)):
            return complex(self) * other
        other = _exact(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (complex, float)):
            return complex(self) / other
        other = _exact(other)
        if other is NotImplemented:
            return NotImplemented
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero RationalComplex")
        return RationalComplex(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        if isinstance(other, (complex, float)):
            return other / complex(self)
        other = _exact(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

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


def _exact(value):
    """``value`` as a RationalComplex, or NotImplemented for other types."""
    if isinstance(value, RationalComplex):
        return value
    if isinstance(value, numbers.Rational):
        return RationalComplex(Fraction(value), Fraction(0))
    return NotImplemented


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


def common_denominator(values) -> tuple:
    """(d, [d * x for x in values]) for ints, Fractions and finite floats,
    d the least common denominator of the rationals that
    ``as_integer_ratio`` gives, so the list holds ints.  The lcm runs over
    the distinct denominators, a few even for hundreds of values."""
    ratios = [x.as_integer_ratio() for x in values]
    d = math.lcm(*{q for _, q in ratios})
    return d, [p * (d // q) for p, q in ratios]


def scalar_norm(values) -> float:
    """Euclidean size of a coefficient vector, for float tolerances.  A sum
    of squares that overflows is taken again by ``math.hypot``, which
    scales, so a finite vector has a finite norm; every other result keeps
    the bits of the plain sum."""
    norm = math.sqrt(sum(float(v) * float(v) for v in values))
    if norm == math.inf:
        return math.hypot(*map(float, values))
    return norm


def vanishing(spectrum, coeffs) -> list:
    """Which spectrum components of the element with coefficients ``coeffs``
    vanish: exactly when every coefficient is exact, else within
    ``NULLIFIC_RTOL * (1 + ||coeffs||)``.  Undefined at 0, so it raises."""
    if not any(coeffs):
        raise ZeroInput("zero divisor test is undefined at zero")
    if all(is_exact(c) for c in coeffs):
        return [not z for z in spectrum]
    tol = NULLIFIC_RTOL * (1.0 + scalar_norm(coeffs))
    return [abs(z) <= tol for z in spectrum]


def scan_terms(text: str, pattern):
    """Yield (sign, match) for each term of a signed-sum literal such as
    ``1 - 2*i + h``; ``pattern`` matches one term and names its optional
    leading sign ``sign``.  Every term after the first needs a sign."""
    pos, first = 0, True
    text = text.strip()
    if not text:
        raise ValueError("empty element")
    while pos < len(text):
        m = pattern.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"bad element syntax at position {pos}: {text[pos:]!r}")
        if not first and m.group("sign") is None:
            raise ValueError(f"missing '+'/'-' before position {pos}")
        yield m.group("sign") or "+", m
        pos, first = m.end(), False
