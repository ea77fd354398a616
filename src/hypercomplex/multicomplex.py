"""The multicomplex tower MC(n): n commuting imaginary units i1..in.

MC(1) is the complex numbers, MC(2) is the bicomplex algebra on
(1, i1, i2, i1*i2) <-> (1, i, h, k), and MC(3) is Cockle's "octrine" with
eight components.  Every generator squares to -1; a basis element is a
product of distinct generators, stored densely as 2**n coefficients
indexed by the generator subset bitmask (bit r <-> unit i_{r+1}), which is
exactly subset-lexicographic order.

Products of basis elements follow the subset rule

    e_S * e_T = (-1)**|S & T| * e_(S ^ T)

since each shared generator contributes a square of -1.

The idempotent split peels off one unit per stage: writing an element as
a = x + i1*y with x, y in the algebra on i2..in, the idempotent pair
(1 -+ i1*i2)/2 turns a into the component pair (x + i2*y, x - i2*y), and
the remaining units flatten the algebra onto 2**(n-1) copies of the
complex numbers with componentwise operations (the idempotent
representation of G. B. Price, *An Introduction to Multicomplex Spaces and
Functions*, 1991).  At n = 2 this is precisely the bicomplex decomposition.
The split and its inverse run as one iterative butterfly over the flat
coefficient list, n - 1 stages of 2**n scalar additions: O(n * 2**n).

Exact products and powers go through the spectrum when the operands are
dense enough (see :func:`_spectral_is_cheaper`): the butterfly runs on the
integer coefficients of d * a, d a common denominator, the components are
multiplied (or raised to the power) one by one, and the inverse butterfly
and one division by d * 2**(n-1) give the result, so the product costs
O(n * 2**n) instead of O(4**n).  Float products, order 2 and sparse
operands (a scalar or a unit times an element) keep the direct sum over
the subset rule, which costs one term per pair of nonzero coefficients and
leaves float results bit for bit as they were; a plain number scales the
coefficients, one term each.

:meth:`Multicomplex.is_zero_divisor` applies the shared
:func:`~hypercomplex.scalars.vanishing` rule to the spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .bicomplex import Bicomplex
from .scalars import (
    HALF,
    Element,
    RationalComplex,
    ZeroInput,  # re-exported
    binary_power,
    common_denominator,
    format_scalar,
    is_real_scalar,
    make_complex,
    parse_scalar,
    vanishing,
)

MAX_ORDER = 16


class OrderMismatch(ValueError):
    """Operands live in towers of different order."""


@dataclass(frozen=True)
class Multicomplex(Element):
    order: int
    coeffs: tuple

    def __post_init__(self):
        if not 1 <= self.order <= MAX_ORDER:
            raise ValueError(f"order must be in 1..{MAX_ORDER}, got {self.order}")
        if len(self.coeffs) != 1 << self.order:
            raise ValueError(
                f"order {self.order} needs {1 << self.order} coefficients, "
                f"got {len(self.coeffs)}"
            )
        if not isinstance(self.coeffs, tuple):
            object.__setattr__(self, "coeffs", tuple(self.coeffs))

    @staticmethod
    def scalar(order: int, value) -> "Multicomplex":
        coeffs = [0] * (1 << order)
        coeffs[0] = value
        return Multicomplex(order, tuple(coeffs))

    @staticmethod
    def unit(order: int, index: int) -> "Multicomplex":
        """The generator i_{index+1} (index counts from 0)."""
        if not 0 <= index < order:
            raise ValueError(f"unit index {index} out of range for order {order}")
        coeffs = [0] * (1 << order)
        coeffs[1 << index] = 1
        return Multicomplex(order, tuple(coeffs))

    def components(self) -> tuple:
        return self.coeffs

    def _check_order(self, other: "Multicomplex"):
        if self.order != other.order:
            raise OrderMismatch(f"orders differ: {self.order} vs {other.order}")

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_order(other)
        return Multicomplex(
            self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        return Multicomplex(self.order, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        n = self.order
        if not isinstance(other, Multicomplex):
            if not is_real_scalar(other):
                return NotImplemented
            # The direct sum below with Multicomplex.scalar(n, other), one
            # term per nonzero coefficient.
            if not other:
                return Multicomplex.scalar(n, 0)
            return _element(n, tuple([0 + a * other if a else 0 for a in self.coeffs]))
        self._check_order(other)
        return _element(n, product(self.coeffs, other.coeffs, n))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        n = self.order
        if (
            not isinstance(k, int) or k < 2 or n < 3
            or not _spectral_is_cheaper(self.coeffs, self.coeffs, n)
        ):
            return super().__pow__(k)
        d, v = _integer_spectrum(self.coeffs, n)
        top = 1 << (n - 1)
        one = RationalComplex(1, 0)
        for s in range(top):
            z = binary_power(RationalComplex(v[s], v[s + top]), k, one)
            v[s], v[s + top] = z.re, z.im
        return Multicomplex(n, _from_integer_spectrum(v, n, d**k))

    def _from_scalar(self, value):
        if is_real_scalar(value):
            return Multicomplex.scalar(self.order, value)
        return NotImplemented

    # -- idempotent split -------------------------------------------------

    def split(self) -> tuple:
        """Flatten onto 2**(n-1) complex components (the algebra spectrum)."""
        n = self.order
        top = 1 << (n - 1)
        if _rational(self.coeffs):
            d, v = _integer_spectrum(self.coeffs, n)
            return tuple(
                RationalComplex(Fraction(v[s], d), Fraction(v[s + top], d))
                for s in _stage_signs(n)
            )
        v = _butterfly(self.coeffs, n)
        return tuple(make_complex(v[s], v[s + top]) for s in _stage_signs(n))

    @staticmethod
    def unsplit(values, order: int) -> "Multicomplex":
        """Inverse of :meth:`split`; exact on the exact backend."""
        values = tuple(values)
        if len(values) != 1 << (order - 1):
            raise ValueError(
                f"order {order} needs {1 << (order - 1)} components, got {len(values)}"
            )
        v = _spectrum_list([(z.real, z.imag) for z in values], order)
        if _rational(v):
            d, v = common_denominator(v)
            return Multicomplex(order, _from_integer_spectrum(v, order, d))
        return Multicomplex(order, tuple(_unbutterfly(v, order, _half)))

    def is_zero_divisor(self) -> bool:
        """True iff some spectrum component vanishes (the nullific condition)."""
        return any(vanishing(self.split(), self.coeffs))

    # -- bicomplex bridge -------------------------------------------------

    def to_bicomplex(self) -> Bicomplex:
        if self.order != 2:
            raise OrderMismatch("only order 2 maps onto the bicomplex algebra")
        return Bicomplex(*self.coeffs)

    @staticmethod
    def from_bicomplex(a: Bicomplex) -> "Multicomplex":
        return Multicomplex(2, a.components())

    # -- text form ---------------------------------------------------------

    def __str__(self):
        return ",".join(format_scalar(c) for c in self.coeffs)

    @staticmethod
    def parse(text: str, order: int) -> "Multicomplex":
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 1 << order:
            raise ValueError(
                f"order {order} needs {1 << order} comma-separated coefficients, "
                f"got {len(parts)}"
            )
        return Multicomplex(order, tuple(parse_scalar(p) for p in parts))

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "coeffs": [format_scalar(c) for c in self.coeffs],
        }


def _element(order: int, coeffs: tuple) -> Multicomplex:
    """The element with a tuple of exactly 2**order coefficients, built
    without the constructor's checks, which take about 0.4 of the 3 us of
    a unit times an order-3 element."""
    element = object.__new__(Multicomplex)
    object.__setattr__(element, "order", order)
    object.__setattr__(element, "coeffs", coeffs)
    return element


def product(a: tuple, b: tuple, order: int) -> tuple:
    """The product of the MC(order) elements with coefficient tuples ``a``
    and ``b``, as a coefficient tuple: the one kernel behind ``*`` between
    elements and the solver's substitution check.  Dense exact operands
    from order 3 go through the integer spectrum, the rest take the direct
    sum over the subset rule (see the module docstring)."""
    if order > 2 and _spectral_is_cheaper(a, b, order):
        da, u = _integer_spectrum(a, order)
        db, v = _integer_spectrum(b, order)
        top = 1 << (order - 1)
        for s in range(top):
            ar, ai, br, bi = u[s], u[s + top], v[s], v[s + top]
            u[s] = ar * br - ai * bi
            u[s + top] = ar * bi + ai * br
        return _from_integer_spectrum(u, order, da * db)
    out = [0] * (1 << order)
    for s, x in enumerate(a):
        if not x:
            continue
        for t, y in enumerate(b):
            if not y:
                continue
            term = x * y
            if (s & t).bit_count() & 1:
                term = -term
            out[s ^ t] = out[s ^ t] + term
    return tuple(out)


# -- the butterfly ----------------------------------------------------------
#
# Stage k (k = 0 .. n-2) of the split writes each sub-element as x + u*y, u
# the lowest unit left, and replaces it by the pair (x + u'*y, x - u'*y), u'
# the next unit.  In the flat list the sign chosen at stage k takes the
# place of unit k's bit, so a stage is one pass of four-term butterflies
# over the indices j, j + 2**k, j + 2*2**k, j + 3*2**k, which hold x_e, y_e,
# x_o, y_o (e, o: unit k+1 absent, present), and u'*y is (-y_o, y_e) there.
# After the last stage entry s holds the real part and entry s + 2**(n-1)
# the imaginary part (the last unit) of the component whose stage signs are
# the bits of s.
#
# On floats the butterfly reproduces the element arithmetic of the split
# term for term, zeros included: a zero y contributes the int 0 rather than
# +-y, and a zero sum is stored as the int 0 rather than halved.  That is
# what the products u'*y and (zp + zm) * 1/2 give, since the direct product
# skips zero coefficients; so -0.0 + 0 makes 0.0, and an element whose only
# floats are zeros can come out exact.


def _half(value):
    """value * HALF added to the int 0, as the product by the scalar 1/2 gives
    it.  A float times HALF is the float times 0.5, so floats skip the
    Fraction; the 0 + turns a float that underflows to -0.0 into 0.0."""
    if not value:
        return 0
    return 0 + value * (0.5 if value.__class__ is float else HALF)


def _butterfly(coeffs, order: int) -> list:
    """The split as a flat list (see above): O(n * 2**n) scalar additions."""
    v = list(coeffs)
    size = len(v)
    for k in range(order - 1):
        step = 1 << k
        for base in range(0, size, 4 * step):
            for j in range(base, base + step):
                j1, j2, j3 = j + step, j + 2 * step, j + 3 * step
                xe, ye, xo, yo = v[j], v[j1], v[j2], v[j3]
                if yo:
                    v[j], v[j1] = xe - yo, xe + yo
                else:
                    v[j] = v[j1] = xe + 0
                if ye:
                    v[j2], v[j3] = xo + ye, xo - ye
                else:
                    v[j2] = v[j3] = xo + 0
    return v


def _unbutterfly(v: list, order: int, half=None) -> list:
    """Inverse of :func:`_butterfly`, in place on ``v``: the stages undone last
    to first, each x = half(P + M) and u'*y = half(P - M).  Without ``half``
    the sums stay unhalved and it returns 2**(order-1) times the
    coefficients."""
    size = len(v)
    for k in range(order - 2, -1, -1):
        step = 1 << k
        for base in range(0, size, 4 * step):
            for j in range(base, base + step):
                j1, j2, j3 = j + step, j + 2 * step, j + 3 * step
                pe, me, po, mo = v[j], v[j1], v[j2], v[j3]
                if half is None:
                    v[j], v[j1], v[j2], v[j3] = pe + me, po - mo, po + mo, me - pe
                else:
                    v[j], v[j1] = half(pe + me), half(po - mo)
                    v[j2], v[j3] = half(po + mo), half(me - pe)
    return v


def _integer_spectrum(coeffs, order: int) -> tuple:
    """(d, v): v the butterfly of d times the exact coefficients, all ints."""
    d, ints = common_denominator(coeffs)
    return d, _butterfly(ints, order)


def _from_integer_spectrum(v: list, order: int, d: int) -> tuple:
    """The coefficients whose :func:`_integer_spectrum` for d is v: ints
    where they are whole, Fractions elsewhere."""
    return _quotients(_unbutterfly(v, order), d << (order - 1))


def _quotients(ints, d: int) -> tuple:
    """Each int over d: an int where it is whole, a Fraction elsewhere."""
    out = []
    for x in ints:
        q, r = divmod(x, d)
        out.append(Fraction(x, d) if r else q)
    return tuple(out)


@lru_cache(maxsize=None)  # one entry per order, at most MAX_ORDER
def _stage_signs(order: int) -> tuple:
    """Flat index s of each split component, in :meth:`Multicomplex.split`
    order: the stage-0 sign is the most significant (bit-reversed s)."""
    signs = [0]
    for k in range(order - 1):
        signs = [s | b for s in signs for b in (0, 1 << k)]
    return tuple(signs)


def _spectrum_list(pairs, order: int) -> list:
    """The flat list that :func:`_unbutterfly` takes for the split components
    given as (real, imaginary) pairs in :meth:`Multicomplex.split` order."""
    top = 1 << (order - 1)
    v = [0] * (2 * top)
    for s, (re, im) in zip(_stage_signs(order), pairs):
        v[s] = re
        v[s + top] = im
    return v


def _spectral_is_cheaper(a: tuple, b: tuple, order: int) -> bool:
    """Route a product of int and Fraction coefficient tuples through the
    spectrum when the direct sum's pairs of nonzero terms outnumber the
    butterflies' n * 2**n additions.

    Measured on dense Fraction operands: the spectrum wins from order 3
    (0.05 against 0.38 ms) and loses at order 2, which the callers keep
    direct.  The counts come first, so a scalar or unit on either side
    stays direct after counting zeros; floats keep the bits of the direct
    sum.
    """
    size = 1 << order
    nonzero_a = size - a.count(0)
    return (
        nonzero_a > order
        and nonzero_a * (size - b.count(0)) > order << order
        and _rational(a)
        and _rational(b)
    )


_RATIONAL_TYPES = frozenset((int, Fraction))


def _rational(values) -> bool:
    """Only ints and Fractions, the values the integer butterfly takes (``a *
    z`` with a RationalComplex z leaves complex coefficients, which it does
    not); any other value takes the element arithmetic."""
    return set(map(type, values)) <= _RATIONAL_TYPES
