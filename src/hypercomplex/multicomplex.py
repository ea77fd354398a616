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

A product of two elements takes one of three routes (see :func:`_route`):

* the spectrum, for dense exact operands from order 3: the butterfly runs
  on the integer coefficients of d * a, d a common denominator, the
  components are multiplied (or raised to the power) one by one, and the
  inverse butterfly and one division by d * 2**(n-1) give the result, so
  the product costs O(n * 2**n) instead of O(4**n);
* the gather tables, for operands of real scalars with no zero
  coefficient at orders 4 to 8, floats among them: the additions of the
  direct sum, in its order, run by ``map`` and ``reduce`` in C over
  signed-index gathers, one table per order built from the subset rule on
  first use and cached (0.75 MB for orders 4 to 8), still O(4**n) but 1.4
  to 1.8 times as fast, and its floats bit for bit;
* the direct sum over the subset rule, for the rest (order <= 3, order >=
  9, and sparse operands such as a scalar or a unit times an element),
  which costs one term per pair of nonzero coefficients.

A plain number scales the coefficients, one term each.

:meth:`Multicomplex.is_zero_divisor` applies the shared
:func:`~hypercomplex.scalars.vanishing` rule to the spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from operator import add, itemgetter, mul, neg, or_

from .bicomplex import Bicomplex
from .scalars import (
    HALF,
    ComputationalError,
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


class OrderMismatch(ComputationalError, ValueError):
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

    def _new(self, components):
        return Multicomplex(self.order, tuple(components))

    def _check(self, other: "Multicomplex"):
        if self.order != other.order:
            raise OrderMismatch(f"orders differ: {self.order} vs {other.order}")

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
        self._check(other)
        return _element(n, product(self.coeffs, other.coeffs, n))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        n = self.order
        if (
            not isinstance(k, int) or k < 2
            or _route(self.coeffs, self.coeffs, n) is not _spectral_product
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
        """True iff some spectrum component vanishes (the nullific condition).
        Exact coefficients are read off the integer spectrum: the bitwise or
        of a component's real and imaginary ints is 0 exactly when both are."""
        n = self.order
        if _rational(self.coeffs):
            top = 1 << (n - 1)
            v = _integer_spectrum(self.coeffs, n)[1]
            return any(vanishing(map(or_, v[:top], v[top:]), self.coeffs))
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
    elements and the solver's substitution check.  :func:`_route` picks one
    of three kernels (see the module docstring)."""
    return _route(a, b, order)(a, b, order)


def _route(a: tuple, b: tuple, order: int):
    """The kernel for the product of ``a`` and ``b``, one decision that
    counts each operand's zeros once.

    Dense exact operands take the spectrum when the direct sum's pairs of
    nonzero terms outnumber the butterflies' n * 2**n additions: measured
    on Fractions it wins from order 3 (0.05 against 0.38 ms) and loses at
    order 2.  Zero-free operands of real scalars at orders 4..8, floats
    among them, take the gather tables; other values (complex ones, say)
    need not give x * (-y) == -(x * y) in every bit, so they stay direct.
    The counts come first, so a scalar or unit on either side stays direct
    after counting zeros.
    """
    if order < 3:
        return _direct_product
    size = 1 << order
    nonzero_a = size - a.count(0)
    nonzero_b = size - b.count(0)
    if nonzero_a <= order or nonzero_a * nonzero_b <= order << order:
        return _direct_product
    types = set(map(type, a)).union(map(type, b))
    if types <= _RATIONAL_TYPES:
        return _spectral_product
    if nonzero_a == nonzero_b == size and order in GATHER_ORDERS and types <= _REAL_TYPES:
        return _gathered_product
    return _direct_product


def _spectral_product(a: tuple, b: tuple, order: int) -> tuple:
    """Componentwise on the integer spectra, then back: O(n * 2**n)."""
    da, u = _integer_spectrum(a, order)
    db, v = _integer_spectrum(b, order)
    top = 1 << (order - 1)
    for s in range(top):
        ar, ai, br, bi = u[s], u[s + top], v[s], v[s + top]
        u[s] = ar * br - ai * bi
        u[s + top] = ar * bi + ai * br
    return _from_integer_spectrum(u, order, da * db)


def _direct_product(a: tuple, b: tuple, order: int) -> tuple:
    """The sum over the subset rule, one term per pair of nonzero
    coefficients, each added to its output in ascending s: O(4**n)."""
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


def _gathered_product(a: tuple, b: tuple, order: int) -> tuple:
    """:func:`_direct_product` of zero-free operands, its additions run in C.

    Output k of the direct sum is 0 + (+-a[0] * b[0 ^ k]) + (+-a[1] *
    b[1 ^ k]) + ..., in ascending s.  The gather for k picks the signed
    factors out of b + (-b), so ``reduce`` adds the same terms in the same
    order; x * (-y) is -(x * y) exactly, so every float keeps its bits.
    ``sum`` would not do: from Python 3.12 it compensates float sums.
    """
    signed = (*b, *map(neg, b))
    return tuple([reduce(add, map(mul, a, gather(signed)), 0) for gather in _gathers(order)])


# -- the gather tables -------------------------------------------------------
#
# By the subset rule, the term of output k for s is sign * a[s] * b[s ^ k]
# with sign (-1)**parity(s & (s ^ k)), so the gather of output k at order n
# picks entry (s ^ k) + 2**n * parity(s & (s ^ k)) of b + (-b) for s = 0 ..
# 2**n - 1.  The entries are taken from one pool of ints, so the tables
# share them.  Orders 4..8 hold 0.75 MB, most of it at order 8, and an
# order's table is built on the first product that needs it.

GATHER_ORDERS = range(4, 9)  # order 3 breaks even; order 9 would hold 4**9 entries
_INDEX_POOL = tuple(range(2 << GATHER_ORDERS[-1]))


@lru_cache(maxsize=None)  # one entry per order of GATHER_ORDERS
def _gathers(order: int) -> tuple:
    """The itemgetter of each output index's signed factors (see above)."""
    size = 1 << order
    return tuple(
        itemgetter(*[_INDEX_POOL[(s ^ k) + size * ((s & (s ^ k)).bit_count() & 1)] for s in range(size)])
        for k in range(size)
    )


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


_RATIONAL_TYPES = frozenset((int, Fraction))
_REAL_TYPES = frozenset((int, Fraction, float))


def _rational(values) -> bool:
    """Only ints and Fractions, the values the integer butterfly takes (``a *
    z`` with a RationalComplex z leaves complex coefficients, which it does
    not); any other value takes the element arithmetic."""
    return set(map(type, values)) <= _RATIONAL_TYPES
