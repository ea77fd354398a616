"""Exact univariate polynomials over Q, as ascending coefficient tuples.

The zero polynomial is the empty tuple; all other polynomials carry no
trailing zero coefficients, so ``len(p) - 1`` is the degree.  Everything
here is pure and exact except the numeric root bridge at the bottom.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .scalars import InvariantError

Poly = tuple


def normalize(coeffs) -> Poly:
    cs = list(coeffs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def const(value) -> Poly:
    return normalize([Fraction(value)])


X = (Fraction(0), Fraction(1))


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
    out = [Fraction(0)] * (len(p) + len(q) - 1)
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
    denom_lcm = math.lcm(*(c.denominator for c in p))
    ints = [int(c * denom_lcm) for c in p]
    g = math.gcd(*(abs(v) for v in ints))
    if ints[-1] < 0:
        g = -g
    return tuple(Fraction(v, g) for v in ints)


def deflate(p: Poly, root: Fraction) -> Poly:
    """Exact synthetic division by (x - root); remainder must vanish."""
    out = []
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * root + c
        out.append(acc)
    if out[-1] != 0:
        raise InvariantError(f"deflation by a non-root {root}")
    return tuple(reversed(out[:-1]))


def rational_roots(p: Poly) -> tuple[list[Fraction], Poly]:
    """Extract all rational roots (with multiplicity) and the deflated remainder.

    Candidates come from snapping numeric roots to small-denominator
    fractions and verifying exactly, which finds every rational root as
    long as the numeric stage resolves it; each hit is divided out and the
    numeric stage reruns on the (better-conditioned) remainder.
    """
    roots: list[Fraction] = []
    rem = normalize(p)
    while degree(rem) >= 1:
        hit = None
        for r in numpy_roots(rem):
            if abs(r.imag) > 1e-6 * (1 + abs(r.real)):
                continue
            cand = Fraction(r.real).limit_denominator(10**6)
            if evaluate(rem, cand) == 0:
                hit = cand
                break
        if hit is None:
            break
        # pull out the full multiplicity before moving on
        while degree(rem) >= 1 and evaluate(rem, hit) == 0:
            roots.append(hit)
            rem = deflate(rem, hit)
    return roots, rem


def numpy_roots(p: Poly) -> list[complex]:
    import numpy as np  # loaded on first use: ``import hypercomplex`` stays numpy-free

    return [complex(r) for r in np.roots([float(c) for c in reversed(p)])]


def real_and_complex_roots(p: Poly) -> tuple[list[float], list[complex]]:
    """Numeric roots of the (rational-root-free) part, split real/complex."""
    reals: list[float] = []
    others: list[complex] = []
    for r in numpy_roots(p):
        if abs(r.imag) <= 1e-9 * (1 + abs(r.real)):
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
