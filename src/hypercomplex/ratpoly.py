"""Exact univariate polynomials over Q, as ascending coefficient tuples.

The zero polynomial is the empty tuple; all other polynomials carry no
trailing zero coefficients, so ``len(p) - 1`` is the degree.  Coefficients
are ints, or ``Fraction``s where they must be.  Everything here is pure and
exact except the numeric root bridge at the bottom.

:func:`exact_roots` is the package's one exact-root extractor, for
:func:`rational_roots` here and for ``polysolve``, on Gaussian integers over
one denominator.  An exact point is the Gaussian integer a + b*i over a
denominator d > 0, the ints ``(a, b, d)``.  Each numeric root r proposes
one, round(L*r)/L for L the leading coefficient (the rational root
theorem), and the Horner loop that confirms it also gives its quotient, so
every root is checked once, where it is divided out, to its full
multiplicity.  :func:`squarefree_roots` splits off multiple roots first,
which spread the numeric roots beyond one rounding.  :func:`evaluate` is
its one value Horner.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .scalars import RationalComplex, common_denominator

Poly = tuple

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


def exact_roots(D: int, scaled, numeric_roots, real: bool = False) -> tuple[list, list]:
    """The exact roots, with multiplicity, of the polynomial whose ascending
    coefficients times D have the (re, im) int pairs ``scaled``, leading pair
    nonzero, as ``(a, b, d)`` points sorted by exact value; and the numeric
    roots of the quotient where nothing is exact.

    ``numeric_roots`` takes the coefficients as complex numbers rounded as
    ``float(Fraction)``.  Each of its roots proposes the one point of
    :func:`_rounded`, and a point on which :func:`_horner` vanishes is
    divided out to its full multiplicity.  Then ``numeric_roots`` runs on
    the quotient, until a run gives no root.  With ``real`` the polynomial
    is real, and a root and its conjugate propose one real point, from the
    real part: a multiple real root comes back as a pair whose imaginary
    parts carry most of the error.
    """
    found: list = []
    while len(scaled) >= 2:
        numeric = numeric_roots([complex(re / D, im / D) for re, im in scaled])
        content = math.gcd(*(part for pair in scaled for part in pair))
        lead = (scaled[-1][0] // content, scaled[-1][1] // content)
        hits = len(found)
        for r in numeric:
            if real:
                if r.imag < 0:   # its conjugate proposes the same point
                    continue
                r = complex(r.real)
            point = _rounded(lead, r)
            # a rational root a/d of an integer polynomial has a | p(0)
            if point is None or (real and math.gcd(point[0], scaled[0][0]) != abs(point[0])):
                continue
            horner = _horner(scaled, *point)
            while horner:
                found.append(point)
                D, scaled = _quotient(D, point[2], horner)
                horner = _horner(scaled, *point)
        if len(found) == hits:
            return _by_value(found), numeric
    return _by_value(found), []


def _rounded(lead, r: complex):
    """round(L*r)/L in lowest terms, for L = ``lead`` the leading Gaussian
    integer of a polynomial and r one of its numeric roots, L*r rounded half
    up exactly; None for an r that is not finite.  A root x in Q(i) has L*x
    in Z[i] (the rational root theorem, by Gauss's lemma), so this is x
    whenever L*(r - x) is below 1/2 in each coordinate."""
    if not cmath.isfinite(r):
        return None
    l_re, l_im = lead
    (x, dx), (y, dy) = r.real.as_integer_ratio(), r.imag.as_integer_ratio()
    # L*r = (t_re + t_im*i) / (dx*dy); u + v*i rounds it half up
    u, v = (
        (2 * t + dx * dy) // (2 * dx * dy)
        for t in (l_re * x * dy - l_im * y * dx, l_re * y * dx + l_im * x * dy)
    )
    # (u + v*i)/L is (u + v*i) * conj(L) over |L|**2
    a, b, d = u * l_re + v * l_im, v * l_re - u * l_im, l_re * l_re + l_im * l_im
    g = math.gcd(a, b, d)
    return a // g, b // g, d // g


# A prime P = 1 (mod 4) and a square root of -1 modulo P: sending i to _I
# maps Z[i] onto the field Z/P, which is Z[i] modulo a Gaussian prime over P.
_P = 2**61 - 31
_I = 583529827753931384


def squarefree_roots(D: int, scaled, numeric_roots) -> tuple[list, list]:
    """:func:`exact_roots` after a squarefree split p = c * prod f_k**k, by
    Yun's algorithm (Yun 1976) over Q(i) unless :func:`_squarefree_mod_p`
    proves p squarefree: each f_k is extracted once and its roots counted k
    times, the numeric ones sorted by value."""
    if len(scaled) < 2 or _squarefree_mod_p(scaled):
        return exact_roots(D, scaled, numeric_roots)
    p = tuple(RationalComplex(Fraction(re), Fraction(im)) for re, im in scaled)
    a = _gcd(p, _derivative(p))
    b, c = _divmod(p, a)[0], _divmod(_derivative(p), a)[0]
    exact, numeric, k = [], [], 0
    while len(b) >= 2:
        d = sub(c, _derivative(b))
        a, k = _gcd(b, d), k + 1   # f_k
        if len(a) >= 2:   # made monic, which keeps its leading Gaussian integer small
            e, n = exact_roots(*gaussian_integers([x / a[-1] for x in a]), numeric_roots)
            exact += e * k
            numeric += n * k
        b, c = _divmod(b, a)[0], _divmod(d, a)[0]
    return _by_value(exact), sorted(numeric, key=lambda r: (r.real, r.imag))


def _squarefree_mod_p(scaled) -> bool:
    """True when the image of the polynomial with Gaussian-integer
    coefficients ``scaled`` in (Z/P)[z] keeps its degree and is coprime to
    its derivative.  That proves p squarefree: a square factor g**2 of p
    would leave g's image, of g's degree, in both.  False proves nothing."""
    f = [(re + _I * im) % _P for re, im in scaled]
    return bool(f[-1]) and len(_gcd(f, [c % _P for c in _derivative(f)], _P)) == 1


def _derivative(p: Poly) -> Poly:
    return tuple(k * p[k] for k in range(1, len(p)))


def _divmod(p: Poly, q: Poly, modulus=None) -> tuple[Poly, Poly]:
    """Quotient and remainder of p by q != 0, over Q(i), or over Z/modulus
    for a prime modulus and coefficients reduced by it."""
    inverse = pow(q[-1], -1, modulus) if modulus else 1 / q[-1]
    rem, n, quotient = list(p), len(q) - 1, []
    for i in range(len(p) - 1, n - 1, -1):
        c = rem[i] * inverse % modulus if modulus else rem[i] * inverse
        quotient.append(c)
        for j in range(n):
            rem[i - n + j] -= c * q[j]
    return tuple(reversed(quotient)), normalize([x % modulus for x in rem[:n]] if modulus else rem[:n])


def _gcd(p: Poly, q: Poly, modulus=None) -> Poly:
    """A gcd of p != 0 and q, as for :func:`_divmod`."""
    while q:
        p, q = q, _divmod(p, q, modulus)[1]
    return p


def _by_value(points: list) -> list:
    """Exact points sorted by value, real part first, on the ints of their
    common denominator."""
    den = math.lcm(*[d for _, _, d in points])
    return sorted(points, key=lambda x: (x[0] * (den // x[2]), x[1] * (den // x[2])))


def rational_roots(p: Poly) -> tuple[list[Fraction], list[complex]]:
    """All rational roots of p, with multiplicity, and the numeric roots of
    the rest: every rational root the numeric stage resolves is found."""
    exact, numeric = exact_roots(*gaussian_integers(normalize(p)), numpy_roots, real=True)
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
