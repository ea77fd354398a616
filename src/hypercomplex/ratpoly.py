"""Exact univariate polynomials over Q, as ascending coefficient tuples.

The zero polynomial is the empty tuple; all other polynomials carry no
trailing zero coefficients, so ``len(p) - 1`` is the degree.  Coefficients
are ints, or ``Fraction``s where they must be.  Everything here is pure and
exact except the numeric root bridge at the bottom.

:func:`exact_roots` is the package's one exact-root extractor, for
:func:`rational_roots` here and for ``polysolve``, on Gaussian integers over
one denominator: each numeric root proposes exact candidates, and the one
Horner loop that confirms a candidate also gives its quotient, so every
root is checked once, where it is divided out, to its full multiplicity.
An exact point, candidate or root, is the Gaussian integer a + b*i over a
denominator d > 0, the ints ``(a, b, d)``.  The numeric finder runs once on
each quotient, or once in all on a polynomial that one run splits
completely into simple exact roots.  :func:`best_rationals` is the
package's one best-rational-approximation routine: the nearest fraction to
a float under each of a ladder of denominator bounds, from one
continued-fraction pass, as (numerator, denominator) ints.
:func:`evaluate` is its one value Horner.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .scalars import common_denominator

Poly = tuple

SNAP_DENOMINATOR = 10**6   # largest denominator of a snapped root
NEAR_REAL_RTOL = 1e-6      # a numeric root this near the real axis may snap to a rational
REAL_ROOT_RTOL = 1e-9      # a numeric root this near the real axis is reported real


def normalize(coeffs) -> Poly:
    cs = list(coeffs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def degree(p: Poly) -> int:
    return len(p) - 1


def add(p: Poly, q: Poly) -> Poly:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return normalize(out)


def neg(p: Poly) -> Poly:
    return tuple(-c for c in p)


def sub(p: Poly, q: Poly) -> Poly:
    return add(p, neg(q))


def mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ()
    out = [p[0] * 0] * (len(p) + len(q) - 1)   # ints stay ints, Fractions stay Fractions
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return normalize(out)


def scale(p: Poly, factor) -> Poly:
    return normalize([c * factor for c in p])


def evaluate(p: Poly, x):
    """p(x) by Horner from the leading coefficient, 0 for the zero
    polynomial; exact for exact p and x, in x's arithmetic otherwise
    (complex, or the elements of an algebra)."""
    if not p:
        return 0
    acc = p[-1]
    for c in reversed(p[:-1]):
        acc = acc * x + c
    return acc


def primitive_positive(p: Poly) -> Poly:
    """Divide out the rational content and force a positive leading coefficient."""
    if not p:
        return ()
    _, ints = common_denominator(p)
    g = math.gcd(*(abs(v) for v in ints))
    if ints[-1] < 0:
        g = -g
    return tuple(Fraction(v, g) for v in ints)


def gaussian_integers(coeffs) -> tuple[int, list]:
    """(D, pairs) for exact coefficients c (ints, ``Fraction``s or
    ``RationalComplex`` values): D their common denominator and pairs the
    (re, im) ints of each D*c, so D*p has Gaussian-integer coefficients."""
    D, ints = common_denominator([part for c in coeffs for part in (c.real, c.imag)])
    return D, list(zip(ints[::2], ints[1::2]))


def best_rationals(x: float, bounds) -> list[tuple[int, int]]:
    """(p, q) of the fraction nearest x with denominator at most b, for each
    of the ascending bounds b, all from one continued-fraction pass; the
    same fractions, tie rule included, as ``Fraction``'s bounded-denominator
    approximation gives.

    The convergents p1/q1 of x are walked once; a bound b stops the walk at
    the first convergent with q > b, and its answer is the last convergent
    or the semiconvergent with k = (b - q0) // q1, whichever is nearer x,
    the last convergent on a tie.  Each pair is in lowest terms with q > 0.
    """
    N, D = x.as_integer_ratio()
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = N, D
    out = []
    for bound in bounds:
        if D <= bound:
            out.append((N, D))
            continue
        while True:
            a = n // d
            q2 = q0 + a * q1
            if q2 > bound:
                break
            p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
            n, d = d, n - a * d
        k = (bound - q0) // q1
        if 2 * d * (q0 + k * q1) <= D:
            out.append((p1, q1))
        else:
            out.append((p0 + k * p1, q0 + k * q1))
    return out


def _horner(scaled, a: int, b: int, d: int):
    """The Horner accumulators but the last when p(x) = 0 exactly at the
    point x = (a + b*i)/d, else None.

    Horner on Python ints gives accumulator j = D * d**j * q_(n-1-j), q
    the quotient of p by (z - x), and finally D * d**n * p(x): O(n)
    Gaussian-integer multiply-adds and no gcd normalisation.
    """
    acc_re, acc_im = scaled[-1]
    accs = []
    scale = 1
    for c_re, c_im in reversed(scaled[:-1]):
        accs.append((acc_re, acc_im))
        scale *= d
        acc_re, acc_im = (
            acc_re * a - acc_im * b + c_re * scale,
            acc_re * b + acc_im * a + c_im * scale,
        )
    return None if acc_re or acc_im else accs


def _quotient(D: int, d: int, accs) -> tuple[int, list]:
    """(D', C') with C'/D' the quotient whose :func:`_horner` accumulators
    over D are accs: scaling accumulator j by d**(n-1-j) puts it over
    D * d**(n-1), and one gcd pass removes the content."""
    quotient, power = [], 1
    for acc_re, acc_im in reversed(accs):
        quotient.append((acc_re * power, acc_im * power))
        power *= d
    D *= power // d
    g = math.gcd(D, *(part for pair in quotient for part in pair))
    return D // g, [(u // g, v // g) for u, v in quotient]


def exact_roots(D: int, scaled, numeric_roots, candidates) -> tuple[list, list]:
    """The exact roots, with multiplicity, of the polynomial whose ascending
    coefficients times D have the (re, im) int pairs ``scaled``, leading pair
    nonzero, as ``(a, b, d)`` points, the Gaussian integer a + b*i over d,
    sorted by exact value; and the numeric roots of the quotient where
    nothing is exact.

    ``numeric_roots`` takes the coefficients as complex numbers rounded as
    ``float(Fraction)``.  ``candidates(r)`` yields the exact points near its
    float root r to try, in order, and is called when r's turn comes.  The
    first point on which the Horner loop of :func:`_horner` vanishes is a
    root, the accumulators of that run give its quotient, and it is divided
    out to its full multiplicity; nothing else is divided out.  Then
    ``numeric_roots`` runs on the quotient, and so on until a run gives no
    root.

    One run may split the polynomial: when the first root of the first run
    is simple, the rest of that run's candidates, those of the root that
    proposed it included, are tried on the quotient, and if they divide it
    out completely, each once, they are all the exact roots and no other
    run is made.  Only a complete split is kept, so no exact root is lost
    to it; otherwise the runs go on from the first quotient.
    """
    found: list = []
    while len(scaled) >= 2:
        numeric = numeric_roots([complex(re / D, im / D) for re, im in scaled])
        points = (point for r in numeric for point in candidates(r))
        horner = None
        for point in points:
            horner = _horner(scaled, *point)
            if horner:
                break
        if not horner:
            return _by_value(found), numeric
        while horner:
            found.append(point)
            D, scaled = _quotient(D, point[2], horner)
            horner = _horner(scaled, *point)
        # one root found so far: the first run's first, and simple
        if len(found) == 1 and len(scaled) >= 2:
            rest = _complete_split(D, scaled, points)
            if rest is not None:
                return _by_value(found + rest), []
    return _by_value(found), []


def _complete_split(D: int, scaled, points):
    """The points among ``points`` that divide the polynomial of
    :func:`exact_roots` out completely, each a simple root, in the order
    they are found; None if they do not."""
    roots = []
    for point in points:
        horner = _horner(scaled, *point)
        if not horner:
            continue
        roots.append(point)
        D, scaled = _quotient(D, point[2], horner)
        if len(scaled) < 2:
            return roots
        if _horner(scaled, *point):
            return None
    return None


def _by_value(points: list) -> list:
    """Exact points sorted by value, real part first, on the ints of their
    common denominator."""
    if len(points) < 2:
        return points
    den = math.lcm(*[d for _, _, d in points])
    return sorted(points, key=lambda x: (x[0] * (den // x[2]), x[1] * (den // x[2])))


def _rational_candidates(root: complex):
    """The point of the fraction with denominator at most SNAP_DENOMINATOR
    nearest a near-real root; nothing for any other root."""
    if abs(root.imag) <= NEAR_REAL_RTOL * (1 + abs(root.real)):
        (p, q), = best_rationals(root.real, (SNAP_DENOMINATOR,))
        yield p, 0, q


def rational_roots(p: Poly) -> tuple[list[Fraction], list[complex]]:
    """All rational roots of p, with multiplicity, and the numeric roots of
    the rest: every rational root the numeric stage resolves is found."""
    exact, numeric = exact_roots(*gaussian_integers(normalize(p)), numpy_roots, _rational_candidates)
    return [Fraction(a, d) for a, _, d in exact], numeric


def numpy_roots(p: Poly) -> list[complex]:
    import numpy as np  # loaded on first use: ``import hypercomplex`` stays numpy-free

    return [complex(r) for r in np.roots([c.real for c in reversed(p)])]


def real_and_complex_roots(roots: list[complex]) -> tuple[list[float], list[complex]]:
    """Numeric roots sorted into the real parts of near-real ones and the rest."""
    reals: list[float] = []
    others: list[complex] = []
    for r in roots:
        if abs(r.imag) <= REAL_ROOT_RTOL * (1 + abs(r.real)):
            reals.append(r.real)
        else:
            others.append(r)
    return reals, others


def sqrt_exact(value: Fraction):
    """Exact square root of a nonnegative rational, or None."""
    if value < 0:
        raise ValueError("negative radicand")
    pn, qn = value.numerator, value.denominator
    sp, sq = math.isqrt(pn), math.isqrt(qn)
    if sp * sp == pn and sq * sq == qn:
        return Fraction(sp, sq)
    return None


def to_str(p: Poly, var: str = "x") -> str:
    """Descending-power form like '3*x^2 - 20*x + 32'."""
    if not p:
        return "0"
    parts = []
    for power in range(len(p) - 1, -1, -1):
        c = p[power]
        if not c:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if power == 0:
            body = str(mag)
        else:
            xpow = var if power == 1 else f"{var}^{power}"
            body = xpow if mag == 1 else f"{mag}*{xpow}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = first_body if first_sign == "+" else f"-{first_body}"
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out
