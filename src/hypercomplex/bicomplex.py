"""Bicomplex numbers (tessarines): the commutative algebra on 1, i, h, k = ih.

Unit relations: i**2 = h**2 = -1, k**2 = +1, and everything commutes.  The
same algebra appears in the literature in two dressings:

* Segre's bicomplex numbers x + i*y with complex x, y over a second
  imaginary h -- the basis used here;
* Cockle's tessarines w + i*x + j*y + k*z with j**2 = +1, k = ij.  Cockle's
  j is this module's k (both square to +1); Cockle's k = ij is -h here.

The algebra is isomorphic to C (+) C.  The isomorphism is realized by
:meth:`Bicomplex.decompose`: with the idempotents g = (1 - hi)/2 and
g' = (1 + hi)/2, every element equals Z*g + Z'*g' for complex Z, Z', and
multiplication acts componentwise on (Z, Z').  The zero divisors are
exactly the elements with Z = 0 or Z' = 0; they form the two ideals
generated by -h + i and h + i.

The product keeps its own kernel, :func:`product` on coefficient tuples,
which ``*`` and the polynomial solver's substitution check both call: the
order-2 ``Multicomplex`` one is slower and rounds floats differently.

All values are immutable and every operation is a pure function, so
anything here can be shared freely across threads.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .scalars import (
    HALF,
    ComputationalError,
    Element,
    abs_sq,
    format_scalar,
    is_real_scalar,
    make_complex,
    parse_scalar,
    scan_terms,
    vanishing,
)


class NotInvertible(ComputationalError, ArithmeticError):
    """Raised for zero or nullific (zero-divisor) elements."""


class IdealTag(enum.Enum):
    NONE = "None"
    FIRST_SET = "FirstSet"
    SECOND_SET = "SecondSet"
    ZERO = "Zero"


class SplitPair(NamedTuple):
    """Image of an element under the idempotent split, (Z, Z')."""

    z1: object
    z2: object


@dataclass(frozen=True)
class Bicomplex(Element):
    """w + x*i + y*h + z*k with scalar components (exact rational or float)."""

    w: object = 0
    x: object = 0
    y: object = 0
    z: object = 0

    # -- basics ---------------------------------------------------------

    def components(self):
        return (self.w, self.x, self.y, self.z)

    def is_zero(self) -> bool:
        return not (self.w or self.x or self.y or self.z)

    def _from_scalar(self, value):
        """A real scalar as an element.  A complex value, exact
        ``RationalComplex`` too, is not one: i and h are basis units, not
        scalar imaginaries."""
        return Bicomplex(value, 0, 0, 0) if is_real_scalar(value) else NotImplemented

    def _new(self, components):
        return Bicomplex(*components)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Bicomplex(*product(self.components(), other.components()))

    __rmul__ = __mul__

    # -- Segre split ----------------------------------------------------

    def decompose(self) -> SplitPair:
        """(Z, Z') with self = Z*g + Z'*g'; Z is self at i -> h, Z' at i -> -h."""
        return SplitPair(
            make_complex(self.w - self.z, self.x + self.y),
            make_complex(self.w + self.z, self.y - self.x),
        )

    @staticmethod
    def recompose(pair: SplitPair) -> "Bicomplex":
        """Inverse of :meth:`decompose` (exact on the exact backend)."""
        z1, z2 = pair
        p, q = z1.real, z1.imag
        pp, qq = z2.real, z2.imag
        return Bicomplex(
            (p + pp) * HALF, (q - qq) * HALF, (q + qq) * HALF, (pp - p) * HALF
        )

    def ideal(self) -> IdealTag:
        """Which nullific set (zero-divisor ideal) the element belongs to."""
        if self.is_zero():
            return IdealTag.ZERO
        z1_zero, z2_zero = vanishing(self.decompose(), self.components())
        if z2_zero:
            return IdealTag.FIRST_SET
        if z1_zero:
            return IdealTag.SECOND_SET
        return IdealTag.NONE

    def is_zero_divisor(self) -> bool:
        return any(vanishing(self.decompose(), self.components()))

    # -- norm and inversion ----------------------------------------------

    def norm_sq(self):
        """|Z|^2 * |Z'|^2 -- exact on rationals; equals norm()**2."""
        z1, z2 = self.decompose()
        return abs_sq(z1) * abs_sq(z2)

    def norm(self) -> float:
        """Multiplicative norm |Z|*|Z'|; zero exactly on zero divisors and 0."""
        return math.sqrt(float(self.norm_sq()))

    def inverse(self) -> "Bicomplex":
        tag = self.ideal()
        if tag is not IdealTag.NONE:
            raise NotInvertible(f"element is not invertible (ideal tag {tag.value})")
        z1, z2 = self.decompose()
        return Bicomplex.recompose(SplitPair(1 / z1, 1 / z2))

    # -- involutions -----------------------------------------------------

    def conj_i(self) -> "Bicomplex":
        """i -> -i (k = ih flips too)."""
        return Bicomplex(self.w, -self.x, self.y, -self.z)

    def conj_h(self) -> "Bicomplex":
        """h -> -h (k flips too)."""
        return Bicomplex(self.w, self.x, -self.y, -self.z)

    def conj_ih(self) -> "Bicomplex":
        """Both units flipped; k is fixed."""
        return Bicomplex(self.w, -self.x, -self.y, self.z)

    def conjugates(self):
        return (self.conj_i(), self.conj_h(), self.conj_ih())

    # -- text form ---------------------------------------------------------

    def __str__(self):
        terms = []
        for coeff, unit in zip(self.components(), ("", "i", "h", "k")):
            if not coeff:
                continue
            sign = "-" if _is_negative(coeff) else "+"
            mag = format_scalar(-coeff if sign == "-" else coeff)
            terms.append((sign, mag if not unit else f"{mag}*{unit}"))
        if not terms:
            return "0"
        first_sign, first = terms[0]
        out = (first if first_sign == "+" else f"-{first}")
        for sign, body in terms[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"Bicomplex({self.w!r}, {self.x!r}, {self.y!r}, {self.z!r})"

    @staticmethod
    def parse(text: str) -> "Bicomplex":
        """Parse 'w + x*i + y*h + z*k' with rational (p/q) or float literals."""
        comps = {"": 0, "i": 0, "h": 0, "k": 0}
        for sign, m in scan_terms(text, _TERM_RE):
            coeff_text = m.group("coeff")
            coeff = parse_scalar(coeff_text.replace(" ", "")) if coeff_text else 1
            unit = m.group("unit") or m.group("bare_unit") or ""
            comps[unit] = comps[unit] + (-coeff if sign == "-" else coeff)
        return Bicomplex(comps[""], comps["i"], comps["h"], comps["k"])

    def to_json(self) -> dict:
        return {
            "w": format_scalar(self.w),
            "x": format_scalar(self.x),
            "y": format_scalar(self.y),
            "z": format_scalar(self.z),
        }


def product(a: tuple, b: tuple) -> tuple:
    """The product of the elements with coefficient tuples ``a`` and ``b``,
    as a coefficient tuple: the one kernel behind ``*`` and the solver's
    substitution check."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by + az * bz,
        aw * bx + ax * bw - ay * bz - az * by,
        aw * by + ay * bw - ax * bz - az * bx,
        aw * bz + az * bw + ax * by + ay * bx,
    )


def _is_negative(scalar) -> bool:
    try:
        return scalar < 0
    except TypeError:
        return False


_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-])?\s*
        (?:
            (?P<coeff>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?(?:\s*/\s*\d+)?)
            (?:\s*\*\s*(?P<unit>[ihk]))?
          | (?P<bare_unit>[ihk])
        )\s*""",
    re.VERBOSE,
)


ZERO = Bicomplex(0, 0, 0, 0)
ONE = Bicomplex(1, 0, 0, 0)
I = Bicomplex(0, 1, 0, 0)
H = Bicomplex(0, 0, 1, 0)
K = Bicomplex(0, 0, 0, 1)

# Segre idempotents g = (1 - hi)/2, g' = (1 + hi)/2 and the nullific units
# k1 = hg = (h + i)/2, k2 = -hg' = (-h + i)/2.
G = Bicomplex(Fraction(1, 2), 0, 0, Fraction(-1, 2))
G_PRIME = Bicomplex(Fraction(1, 2), 0, 0, Fraction(1, 2))
K1 = Bicomplex(0, Fraction(1, 2), Fraction(1, 2), 0)
K2 = Bicomplex(0, Fraction(1, 2), Fraction(-1, 2), 0)
