"""Roots of polynomials with bicomplex or multicomplex coefficients.

The split isomorphism turns one equation over the split algebra into
independent complex polynomial equations, one per spectrum component:
coefficients are decomposed componentwise, each component polynomial is
solved over C, and every combination of component roots is recombined
into a root of the original equation.  With component degrees m and m'
the equation has m*m' roots; when the leading coefficient is not a zero
divisor the degrees agree and the count is m**2.  If some component
polynomial vanishes identically the solution set is an infinite family:
the vanished components are free and the rest are pinned to the root
list of their component polynomial.

The complex root finder is Aberth-Ehrlich simultaneous iteration with a
Cauchy-bound initial circle, falling back to companion-matrix eigenvalues
when its iterates miss the residual bound; :func:`complex_roots` applies
that one test to both, and a NaN residual fails it.  Roots of
exact-coefficient components are extracted as Gaussian rationals by
:func:`ratpoly.exact_roots`, shared with ``surd``, so rational root sets
(and their residuals) come out exactly zero.  Each float root proposes the
candidates of :func:`_candidates`: a ladder of denominator bounds per
coordinate, small ones first, all from one continued-fraction pass over
the float (:func:`ratpoly.best_rationals`), as (numerator, denominator)
ints.  The extractor alone checks them, and divides out a confirmed root.

Both exact checks run on scaled Gaussian integers, not on ``Fraction``s.
A degree-n polynomial is scaled once by the common denominator D of its
coefficients; at x = y/d, y a Gaussian integer (or an integer element),
D * d**n * p(x) = sum (D*c_k) y**k d**(n-k) is computed by Horner on Python
ints, O(n) products with no gcd normalisation.  The extractor uses it on
each component polynomial, and the substitution check of every exact
recombined root uses it on the original coefficients in the algebra's
basis.

The per-root stage runs on coefficient tuples, with no element objects.
Each component root is converted once, to its float pair and, when exact,
to ints over a denominator.  A combination of exact roots is recombined on
those ints by the inverse butterfly (the bicomplex recombination is its
order-2 case) and substituted on the same ints; it becomes an element only
after it passes.  Other combinations are recombined and substituted on
floats.  The substitution's products are the algebra's own kernel,
:func:`bicomplex.product` or :func:`multicomplex.product`, which ``*``
wraps, so every residual has the bits the element Horner gives.  A solve
returns at most ``MAX_ROOTS`` roots; above that it raises
:class:`TooManyRoots` before any root is computed.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Callable, NamedTuple, Optional, Sequence

from .bicomplex import Bicomplex
from .bicomplex import product as bicomplex_product
from .multicomplex import (
    Multicomplex,
    OrderMismatch,
    _element,
    _half,
    _quotients,
    _rational,
    _spectrum_list,
    _unbutterfly,
)
from .multicomplex import product as multicomplex_product
from .ratpoly import SNAP_DENOMINATOR, best_rationals, exact_roots
from .scalars import SOLVE_RESIDUAL_RTOL, RationalComplex, common_denominator, scalar_norm

ROOT_RESIDUAL_RTOL = 1e-10   # complex root finder acceptance
CLUSTER_RTOL = 1e-7          # multiplicity merge radius
MAX_ROOTS = 2**16            # roots one solve returns at most


class ZeroPolynomial(ValueError):
    """All coefficients vanish."""


class NoConvergence(RuntimeError):
    """Root finder failed; message carries iteration diagnostics."""


class TooManyRoots(ValueError):
    """The solution set has more than ``MAX_ROOTS`` roots."""


# ---------------------------------------------------------------------------
# complex root finding


def complex_roots(coeffs: Sequence) -> list[complex]:
    """All roots (with multiplicity) of a complex polynomial.

    ``coeffs`` is degree-ascending with nonzero leading coefficient and
    degree >= 1.  Each returned root r satisfies
    |p(r)| <= 1e-10 * max(1, max|coeff|).
    """
    cs = [complex(c) for c in coeffs]
    if len(cs) < 2:
        raise ValueError("degree must be at least 1")
    if cs[-1] == 0:
        raise ValueError("leading coefficient must be nonzero")
    scale = max(1.0, max(abs(c) for c in cs))
    tol = ROOT_RESIDUAL_RTOL * scale

    # roots at the origin come off exactly
    nzero = 0
    while cs[nzero] == 0:
        nzero += 1
    roots = [0j] * nzero
    cs = cs[nzero:]

    if len(cs) == 2:
        roots.append(-cs[0] / cs[1])
    elif len(cs) > 2:
        for finder in (_aberth, _companion_roots):
            found = finder(cs)
            bad = [res for res in (abs(_horner(cs, r)) for r in found) if not res <= tol]
            if not bad:
                break
        else:
            raise NoConvergence(
                f"root finder stalled: worst residual {max(bad):.3e} "
                f"exceeds {tol:.3e} after Aberth and companion fallback"
            )
        roots.extend(found)

    roots = _merge_clusters(roots)
    roots.sort(key=lambda r: (r.real, r.imag))
    return roots


def _horner(coeffs, z):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * z + c
    return acc


def _aberth(coeffs, max_iter: int = 200) -> list[complex]:
    """Aberth-Ehrlich simultaneous iteration: the iterates once they settle,
    or after ``max_iter`` sweeps; :func:`complex_roots` checks them."""
    deg = len(coeffs) - 1
    monic = [c / coeffs[-1] for c in coeffs]
    deriv = [k * monic[k] for k in range(1, deg + 1)]
    radius = 1.0 + max(abs(c) for c in monic[:-1])
    # perturbed circle: irrational-ish angle offset plus a mild radius ramp
    # so symmetric polynomials cannot lock the iteration
    zs = [
        radius * (0.75 + 0.5 * j / deg) * cmath.exp(1j * (2 * math.pi * j / deg + 0.43))
        for j in range(deg)
    ]
    for _ in range(max_iter):
        settled = True
        for j in range(deg):
            pj = _horner(monic, zs[j])
            dj = _horner(deriv, zs[j])
            if dj == 0:
                zs[j] += (1e-6 + 1e-6j) * (1 + abs(zs[j]))
                settled = False
                continue
            w = pj / dj
            s = sum(1 / (zs[j] - zs[k]) for k in range(deg) if k != j)
            denom = 1 - w * s
            step = w if denom == 0 else w / denom
            zs[j] -= step
            if abs(step) > 1e-14 * (1 + abs(zs[j])):
                settled = False
        if settled:
            break
    return zs


def _companion_roots(coeffs) -> list[complex]:
    import numpy as np  # loaded on first use: ``import hypercomplex`` stays numpy-free

    return [complex(r) for r in np.roots(list(reversed(coeffs)))]


def _merge_clusters(roots: list[complex]) -> list[complex]:
    """Merge roots within 1e-7*scale into centroid copies (multiplicity kept)."""
    if not roots:
        return []
    radius = CLUSTER_RTOL * max(1.0, max(abs(r) for r in roots))
    remaining = sorted(roots, key=lambda r: (r.real, r.imag))
    merged: list[complex] = []
    while remaining:
        seed = remaining.pop(0)
        cluster = [seed]
        rest = []
        for r in remaining:
            if abs(r - seed) <= radius:
                cluster.append(r)
            else:
                rest.append(r)
        remaining = rest
        centroid = sum(cluster) / len(cluster)
        merged.extend([centroid] * len(cluster))
    return merged


_SNAP_DENOMINATORS = (1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32, 48, 64, 100, 1000, SNAP_DENOMINATOR)


def _candidates(root: complex) -> list:
    """The exact points near a float root that :func:`ratpoly.exact_roots`
    tries, in order, each once: the best rationals of both coordinates
    under each bound of the ladder, small denominators first, so float
    noise around a multiple rational root still lands on it."""
    return list(dict.fromkeys(zip(
        best_rationals(root.real, _SNAP_DENOMINATORS),
        best_rationals(root.imag, _SNAP_DENOMINATORS),
    )))


def _component_roots(coeffs) -> list:
    """Roots of one split-component polynomial, exact where provable.

    Exact-coefficient components get their Gaussian-rational roots pulled
    out by :func:`ratpoly.exact_roots` (with true multiplicity); only the
    remaining rational-root-free part is left to the numeric finder.
    """
    if len(coeffs) <= 1:
        return []
    if not all(isinstance(c, RationalComplex) for c in coeffs):
        return complex_roots(coeffs)
    exact, numeric = exact_roots(coeffs, complex_roots, _candidates)
    return [RationalComplex(Fraction(*re), Fraction(*im)) for re, im in exact] + numeric


def _strip(coeffs: list) -> list:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _trimmed(coeffs) -> list:
    """Degree-ascending algebra coefficients without vanishing leading ones;
    the polynomial must have degree 1 or more."""
    cs = _strip(list(coeffs))
    if not cs:
        raise ZeroPolynomial("all coefficients are zero")
    if len(cs) < 2:
        raise ValueError("polynomial degree must be at least 1")
    return cs


# ---------------------------------------------------------------------------
# polynomials over the split algebras


@dataclass(frozen=True)
class BicomplexPoly:
    """Degree-ascending bicomplex coefficients, leading coefficient nonzero."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(_trimmed(self.coeffs)))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, value: Bicomplex) -> Bicomplex:
        return _horner(self.coeffs, value)


@dataclass(frozen=True)
class InfiniteFamily:
    """Solution family when some split component vanished identically."""

    free_components: tuple
    constrained_roots: dict  # component index -> tuple of complex-ish roots


@dataclass(frozen=True)
class RootSet:
    kind: str  # "Finite" | "InfiniteFamily"
    counts: tuple  # effective degree per split component
    roots: tuple = ()
    residuals: tuple = ()
    family: Optional[InfiniteFamily] = None


def split_polynomial(p: BicomplexPoly) -> tuple[list, list]:
    """Componentwise decomposition; trailing zero leading coefficients dropped."""
    pairs = [c.decompose() for c in p.coeffs]
    return _strip([z1 for z1, _ in pairs]), _strip([z2 for _, z2 in pairs])


class _Algebra(NamedTuple):
    """What the per-root stage of :func:`_solve_components` needs of an
    algebra of order n, whose elements have 2**n coefficients and split
    onto 2**(n-1) complex components by the butterfly of ``multicomplex``
    (the bicomplex split is its order-2 case)."""

    order: int
    product: Callable        # (a, b) -> a*b on coefficient tuples
    half: Callable           # x -> x/2 on a float, as the element recombination rounds it
    element: Callable        # float coefficient tuple -> element
    exact_element: Callable  # (ints, d) -> the element with coefficients ints/d


_BICOMPLEX = _Algebra(
    order=2,
    product=bicomplex_product,
    # Bicomplex.recompose multiplies by HALF; a float times HALF is the
    # float times 0.5
    half=lambda x: x * 0.5,
    element=lambda coeffs: Bicomplex(*coeffs),
    exact_element=lambda ints, d: Bicomplex(*[Fraction(v, d) for v in ints]),
)


def solve(p: BicomplexPoly) -> RootSet:
    """All roots via the split; InfiniteFamily when a component vanishes."""
    comps = list(split_polynomial(p))
    return _solve_components(comps, [c.components() for c in p.coeffs], _BICOMPLEX)


def mc_solve(coeffs: Sequence[Multicomplex], order: Optional[int] = None) -> RootSet:
    """Multicomplex analogue of :func:`solve` with 2**(n-1) components."""
    cs = _trimmed(coeffs)
    n = cs[0].order if order is None else order
    for c in cs:
        if c.order != n:
            raise OrderMismatch(f"coefficient orders differ: {c.order} vs {n}")
    splits = [c.split() for c in cs]
    ncomp = 1 << (n - 1)
    comps = [_strip([s[i] for s in splits]) for i in range(ncomp)]
    algebra = _Algebra(
        order=n,
        product=lambda a, b: multicomplex_product(a, b, n),
        half=_half,
        element=lambda coeffs: _element(n, coeffs),
        exact_element=lambda ints, d: _element(n, _quotients(ints, d)),
    )
    return _solve_components(comps, [c.coeffs for c in cs], algebra)


def _substitution(coeffs, product):
    """The substitution check of the polynomial with degree-ascending
    coefficient tuples ``coeffs`` in an algebra's basis, ``product`` the
    algebra's kernel: a function from a root to the residual |p(r)|, the
    norm of the coefficients of p(r) in the basis.  The root is its
    coefficient tuple, or, with an int d, the ints of d times an exact root.

    When every coefficient and r are exact (ints and Fractions) the check
    runs on integers: with D the common denominator of the coefficients and
    d one of r, D * d**n * p(r) = sum (D*c_k) (d*r)**k d**(n-k), by Horner
    on int tuples, O(n) products without gcd normalisation.  It works in
    the basis, not through the split, so it stays an independent check of
    the recombination.  Only a nonzero value is divided back, by int true
    division, which rounds as ``float(Fraction)`` does, so the residual is
    the one the element Horner gives, bit for bit, whichever d is used.
    Other inputs take the element Horner's operations in its order, ``acc *
    r`` by the kernel, then ``+ c`` coefficient by coefficient, so their
    residuals keep its bits too.
    """
    exact = all(_rational(c) for c in coeffs)
    if exact:
        width = len(coeffs[0])
        denominator, ints = common_denominator([x for c in coeffs for x in c])
        scaled = [ints[k:k + width] for k in range(0, len(ints), width)]

    def residual(root, d=None) -> float:
        if d is not None and not exact:
            root, d = [Fraction(v, d) for v in root], None
        if d is None:
            if not (exact and _rational(root)):
                acc = coeffs[-1]
                for c in reversed(coeffs[:-1]):
                    acc = tuple(map(add, product(acc, root), c))
                return scalar_norm(acc)
            d, root = common_denominator(root)
        acc = scaled[-1]
        scale = 1
        for c in reversed(scaled[:-1]):
            scale *= d
            acc = [a + v * scale for a, v in zip(product(acc, root), c)]
        if not any(acc):
            return 0.0
        den = denominator * scale
        return scalar_norm([v / den for v in acc])

    return residual


def _root_record(z) -> tuple:
    """A component root as the stage uses it: its float (real, imaginary)
    pair, the sort key part and the value a float recombination takes, and
    for an exact root (real, imaginary, d), the ints of d times it."""
    if not isinstance(z, RationalComplex):
        return (z.real, z.imag), None
    (p, q), (r, s) = z.re.as_integer_ratio(), z.im.as_integer_ratio()
    d = math.lcm(q, s)
    return (float(z.re), float(z.im)), (p * (d // q), r * (d // s), d)


def _recombine(combo, order: int, half) -> tuple:
    """The coefficients of the element whose split components are the roots
    of ``combo`` (records of :func:`_root_record`), by the inverse butterfly,
    as (coefficients, d).  When every root is exact they are the ints of d
    times the element, d being 2**(order-1) times the roots' common
    denominator; otherwise they are the recombination of the roots' floats,
    halved by ``half``, and d is None."""
    exact = [r[1] for r in combo]
    if None in exact:
        return tuple(_unbutterfly(_spectrum_list([r[0] for r in combo], order), order, half)), None
    den = math.lcm(*[e[2] for e in exact])
    pairs = [(p * (den // d), q * (den // d)) for p, q, d in exact]
    return _unbutterfly(_spectrum_list(pairs, order), order), den << (order - 1)


def _solve_components(comps, coeffs, algebra: _Algebra) -> RootSet:
    """The roots of the polynomial with coefficient tuples ``coeffs`` whose
    split component polynomials are ``comps``.

    Each component root is recorded once (:func:`_root_record`).  A
    combination of exact roots is recombined and substituted on ints, and
    only a root that passes becomes an element; any other combination is
    recombined and substituted on floats.  A root fails unless its residual
    is at most the tolerance, so a NaN residual fails.  Roots are sorted by
    their split components, the float pairs of their combination.
    """
    counts = tuple(max(len(c) - 1, 0) for c in comps)
    if any(not c for c in comps):
        free = tuple(i for i, c in enumerate(comps) if not c)
        constrained = {
            i: tuple(_component_roots(c)) for i, c in enumerate(comps) if c
        }
        return RootSet(
            kind="InfiniteFamily",
            counts=counts,
            family=InfiniteFamily(free_components=free, constrained_roots=constrained),
        )
    total = math.prod(counts)
    if total > MAX_ROOTS:
        raise TooManyRoots(f"{total} roots exceed the cap of {MAX_ROOTS} per solve")

    records = [[_root_record(z) for z in _component_roots(c)] for c in comps]
    residual_of = _substitution(coeffs, algebra.product)
    tol = SOLVE_RESIDUAL_RTOL * (1.0 + max(scalar_norm(c) for c in coeffs))
    roots, residuals, keys = [], [], []
    for combo in itertools.product(*records):
        values, d = _recombine(combo, algebra.order, algebra.half)
        residual = residual_of(values, d)
        if not residual <= tol:
            raise NoConvergence(
                f"recombined root fails substitution: residual {residual:.3e} > {tol:.3e}"
            )
        roots.append(algebra.element(values) if d is None else algebra.exact_element(values, d))
        residuals.append(residual)
        keys.append(sum([r[0] for r in combo], ()))

    order = sorted(range(len(roots)), key=keys.__getitem__)
    return RootSet(
        kind="Finite",
        counts=counts,
        roots=tuple(roots[i] for i in order),
        residuals=tuple(residuals[i] for i in order),
    )
