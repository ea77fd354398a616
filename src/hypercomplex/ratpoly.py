"""Exact univariate polynomials over Q, as ascending coefficient tuples.

The zero polynomial is the empty tuple; all other polynomials carry no
trailing zero coefficients, so ``len(p) - 1`` is the degree.  Everything
here is pure and exact except the numeric root bridge at the bottom.

:func:`exact_roots` is the package's one exact-root extractor, for
:func:`rational_roots` here and for ``polysolve``: numeric roots snap to
exact candidates, each checked by Horner on scaled Gaussian integers and
divided out to its full multiplicity.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .scalars import InvariantError, common_denominator

Poly = tuple

SNAP_DENOMINATOR = 10**6   # largest denominator of a snapped root
NEAR_REAL_RTOL = 1e-6      # a numeric root this near the real axis may snap to a rational
REAL_ROOT_RTOL = 1e-9      # a numeric root this near the real axis is reported real


def normalize(coeffs) -> Poly:
    cs = list(coeffs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def const(value) -> Poly:
    return normalize([Fraction(value)])


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
    """Horner evaluation; exact for Fraction x, float/complex otherwise."""
    acc = 0
    for c in reversed(p):
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


def deflate(p, root):
    """Exact synthetic division by (x - root), over Q or Q(i); remainder must vanish."""
    out = [p[-1]]
    for c in reversed(p[:-1]):
        out.append(out[-1] * root + c)
    if out[-1]:
        raise InvariantError(f"deflation by a non-root {root}")
    return tuple(reversed(out[:-1]))


def gaussian_integers(coeffs) -> list:
    """The (re, im) int pairs of D*c for exact coefficients c (``Fraction``s
    or ``RationalComplex`` values), D their common denominator: D*p has
    Gaussian-integer coefficients."""
    _, ints = common_denominator([part for c in coeffs for part in (c.real, c.imag)])
    return list(zip(ints[::2], ints[1::2]))


def vanishes_at(scaled, re: Fraction, im: Fraction) -> bool:
    """Whether p(re + im*i) = 0 exactly, p given by :func:`gaussian_integers`.

    With x = (a + b*i)/d, D * d**n * p(x) = sum C_k (a + b*i)**k d**(n-k),
    so Horner on Python ints decides it: O(n) Gaussian-integer
    multiply-adds and no gcd normalisation.
    """
    d = math.lcm(re.denominator, im.denominator)
    a = re.numerator * (d // re.denominator)
    b = im.numerator * (d // im.denominator)
    acc_re, acc_im = scaled[-1]
    scale = 1
    for c_re, c_im in reversed(scaled[:-1]):
        scale *= d
        acc_re, acc_im = (
            acc_re * a - acc_im * b + c_re * scale,
            acc_re * b + acc_im * a + c_im * scale,
        )
    return not (acc_re or acc_im)


def exact_roots(p, numeric_roots, snap) -> tuple[list, list]:
    """The exact roots of p (ascending, leading coefficient nonzero), with
    multiplicity, and the numeric roots of the quotient where nothing snaps.

    ``snap(r, scaled)`` is an exact root near the float root r of the
    polynomial given by :func:`gaussian_integers`, or None.  Each hit is
    divided out to its full multiplicity, and ``numeric_roots`` runs once on
    each quotient, whose exact roots it resolves better.
    """
    found: list = []
    scaled = gaussian_integers(p)
    while len(p) >= 2:
        numeric = numeric_roots(p)
        hits = (snap(r, scaled) for r in numeric)
        hit = next((h for h in hits if h is not None), None)
        if hit is None:
            return found, numeric
        while len(p) >= 2 and vanishes_at(scaled, hit.real, hit.imag):
            found.append(hit)
            p = deflate(p, hit)
            scaled = gaussian_integers(p)
    return found, []


def _snap_rational(root: complex, scaled) -> Optional[Fraction]:
    """The fraction with denominator at most SNAP_DENOMINATOR nearest a
    near-real root, if the polynomial given by ``scaled`` vanishes there."""
    if abs(root.imag) > NEAR_REAL_RTOL * (1 + abs(root.real)):
        return None
    candidate = Fraction(root.real).limit_denominator(SNAP_DENOMINATOR)
    return candidate if vanishes_at(scaled, candidate, Fraction(0)) else None


def rational_roots(p: Poly) -> tuple[list[Fraction], list[complex]]:
    """All rational roots of p, with multiplicity, and the numeric roots of
    the rest: every rational root the numeric stage resolves is found."""
    return exact_roots(normalize(p), numpy_roots, _snap_rational)


def numpy_roots(p: Poly) -> list[complex]:
    import numpy as np  # loaded on first use: ``import hypercomplex`` stays numpy-free

    return [complex(r) for r in np.roots([float(c) for c in reversed(p)])]


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
