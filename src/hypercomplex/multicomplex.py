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

* the spectrum, for dense exact operands from order 3, and for zero-free
  operands of finite real scalars, floats among them, from order 6: every
  value enters as the rational ``as_integer_ratio`` gives, the butterfly
  runs on the integer coefficients of d * a, d a common denominator, the
  components are multiplied (or raised to the power) one by one, and the
  inverse butterfly and one division by d * 2**(n-1) give the result, so
  the product costs O(n * 2**n) instead of O(4**n).  On exact operands
  the division is exact; with a float among them it is one int true
  division per coefficient, which rounds the exact value once, to the
  nearest float, ties to even.  Where that overflows, the product is the
  direct sum below, so inf and nan come out as the sum gives them;
* the gather tables, for operands of real scalars with no zero
  coefficient at orders 4 and 5, floats among them: the additions of the
  direct sum, in its order, run by ``map`` and ``reduce`` in C over
  signed-index gathers, one table per order built from the subset rule on
  first use and cached (15 kB), still O(4**n) but 1.3 to 1.5 times as
  fast, and its floats bit for bit;
* the direct sum over the subset rule, for the rest (order <= 3, float
  operands with a zero or an inf or nan, complex values, and sparse
  operands such as a scalar or a unit times an element), which costs one
  term per pair of nonzero coefficients.

A plain number scales the coefficients, one term each.

:meth:`Multicomplex.is_zero_divisor` applies the shared
:func:`~hypercomplex.scalars.vanishing` rule to the spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import frexp, isfinite
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
        try:
            return Multicomplex(n, _from_integer_spectrum(v, n, d**k, _has_float(self.coeffs)))
        except OverflowError:
            # square-and-multiply from the scalar 1, as Element.__pow__ takes
            # it, each product the direct sum: inf and nan come out as it
            # gives them
            return Multicomplex(n, binary_power(
                self.coeffs, k, Multicomplex.scalar(n, 1).coeffs,
                lambda x, y: _direct_product(x, y, n),
            ))

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
    order 2.  Zero-free operands of real scalars, floats among them, take
    the gather tables at orders 4 and 5 and, when every value is finite,
    the spectrum from order 6, where it is the faster (0.17-0.22 against
    0.33-0.40 ms at order 6, 0.7-1.2 against 4.6-6.7 ms at order 8).
    Other values (complex ones, say) need not give x * (-y) == -(x * y) in
    every bit, and an inf or nan has no exact value, so they stay direct.
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
    if nonzero_a == nonzero_b == size and types <= _REAL_TYPES:
        if order in GATHER_ORDERS:
            return _gathered_product
        if order > GATHER_ORDERS[-1] and _finite(a) and _finite(b):
            return _spectral_product
    return _direct_product


def _spectral_product(a: tuple, b: tuple, order: int) -> tuple:
    """Componentwise on the integer spectra, then back: O(n * 2**n).  With
    a float among the operands each coefficient is the exact one rounded
    once; where one overflows, the product is the direct sum."""
    da, u = _integer_spectrum(a, order)
    db, v = _integer_spectrum(b, order)
    top = 1 << (order - 1)
    for s in range(top):
        ar, ai, br, bi = u[s], u[s + top], v[s], v[s + top]
        u[s] = ar * br - ai * bi
        u[s + top] = ar * bi + ai * br
    try:
        return _from_integer_spectrum(u, order, da * db, _has_float(a) or _has_float(b))
    except OverflowError:
        return _direct_product(a, b, order)


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
# share them.  Orders 4 and 5 hold about 15 kB, and an order's table is
# built on the first product that needs it.

GATHER_ORDERS = range(4, 6)  # order 3 breaks even; from order 6 the spectrum wins
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
    """(d, v): v the butterfly of d times the coefficients, all ints; a
    float enters as the rational it is."""
    if set(map(type, coeffs)) == _FLOAT_TYPE:
        d, ints = _scaled_floats(coeffs)
    else:
        d, ints = common_denominator(coeffs)
    return d, _butterfly(ints, order)


def _scaled_floats(values) -> tuple:
    """(d, [d * x for x in values]) for finite floats, d a power of two, in
    a third of the time of :func:`common_denominator`.  A nonzero float x
    is an integer times 2**(e - 53), e the exponent ``frexp`` gives, and e
    is least at the least |x|; so 2**(53 - e) times each float is an
    integer, and the product by that power of two is exact wherever it is
    finite.  Where it is not (exponents more than about 970 apart), or
    where a value is zero, the common denominator."""
    least = min(map(abs, values))
    if least:
        k = max(0, 53 - frexp(least)[1])
        try:
            scale = 2.0**k
            return 1 << k, list(map(int, map(scale.__mul__, values)))
        except OverflowError:  # 2.0**k, or int() of an inf
            pass
    return common_denominator(values)


def _from_integer_spectrum(v: list, order: int, d: int, rounded: bool = False) -> tuple:
    """The coefficients whose :func:`_integer_spectrum` for d is v: ints
    where they are whole, Fractions elsewhere, or, when ``rounded``, each
    the float nearest to it by one int true division, which CPython rounds
    correctly (ties to even) and which raises OverflowError past the
    largest float."""
    ints = _unbutterfly(v, order)
    d <<= order - 1
    if rounded:
        return tuple([x / d for x in ints])
    return _quotients(ints, d)


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
_FLOAT_TYPE = frozenset((float,))


def _has_float(values) -> bool:
    return float in map(type, values)


def _finite(values) -> bool:
    """No inf or nan among the floats of ``values``."""
    return all(isfinite(x) for x in values if x.__class__ is float)


def _rational(values) -> bool:
    """Only ints and Fractions, the values the integer butterfly takes (``a *
    z`` with a RationalComplex z leaves complex coefficients, which it does
    not); any other value takes the element arithmetic."""
    return set(map(type, values)) <= _RATIONAL_TYPES
