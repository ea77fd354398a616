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
(and their residuals) come out exactly zero.  A component polynomial goes
to :func:`ratpoly.squarefree_roots`, which splits it into squarefree
factors unless one gcd modulo a prime proves it squarefree; on each, every
float root proposes one candidate, rounded by the rational root theorem, as
``(a, b, d)`` ints, the Gaussian integer a + b*i over d.

Everything exact runs on one fixed spectrum.  When every coefficient is
exact, one common denominator D over all of them and one butterfly per
coefficient give every split component polynomial as Gaussian integers
over D, which the extractor takes as they are; its exact roots come back
as the same ``(a, b, d)`` points.  Float and mixed coefficients take the
algebra's own split instead.  The extractor checks a candidate y/d on a
component scaled by its denominator D: D * d**n * p(y/d) = sum (D*c_k) y**k
d**(n-k), by Horner on Python ints, O(n) products with no gcd
normalisation.

The per-root stage runs on coefficient tuples, with no element objects.
Each component root is recorded once, as its float pair and, when exact,
its ``(a, b, d)`` point.  A combination of exact roots is recombined on
those ints by the inverse butterfly (the bicomplex recombination is its
order-2 case) and substituted on the same ints: one forward butterfly takes
the recombined root back to its components, Horner runs per component on
Gaussian integers against the coefficient spectra, and one inverse
butterfly gives the value in the basis, O(n*2**n + deg*2**n) per root for
order n.  It becomes an element only after it passes.  Other combinations
are recombined and substituted on floats, with the algebra's own product
kernel, :func:`bicomplex.product` or :func:`multicomplex.product`, which
``*`` wraps, so every residual has the bits the element Horner gives.  A
solve returns at most ``MAX_ROOTS`` roots; above that it raises
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
    _butterfly,
    _element,
    _half,
    _quotients,
    _rational,
    _spectrum_list,
    _stage_signs,
    _unbutterfly,
)
from .multicomplex import product as multicomplex_product
from .ratpoly import evaluate, gaussian_integers, normalize, squarefree_roots
from .scalars import (
    SOLVE_RESIDUAL_RTOL,
    ComputationalError,
    RationalComplex,
    common_denominator,
    scalar_norm,
)

ROOT_RESIDUAL_RTOL = 1e-10   # complex root finder acceptance
CLUSTER_RTOL = 1e-7          # multiplicity merge radius
ABERTH_MAX_SWEEPS = 200      # Aberth iterations before the finder gives up
MAX_ROOTS = 2**16            # roots one solve returns at most


class ZeroPolynomial(ComputationalError, ValueError):
    """All coefficients vanish."""


class NoConvergence(ComputationalError, RuntimeError):
    """Root finder failed; message carries iteration diagnostics."""


class TooManyRoots(ComputationalError, ValueError):
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
            bad = [res for res in (abs(evaluate(cs, r)) for r in found) if not res <= tol]
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


def _aberth(coeffs) -> list[complex]:
    """Aberth-Ehrlich simultaneous iteration: the iterates once they settle,
    or after ``ABERTH_MAX_SWEEPS`` sweeps; :func:`complex_roots` checks them."""
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
    for _ in range(ABERTH_MAX_SWEEPS):
        settled = True
        for j in range(deg):
            pj = evaluate(monic, zs[j])
            dj = evaluate(deriv, zs[j])
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


def _component_roots(coeffs, D: Optional[int] = None) -> list:
    """Roots of one split-component polynomial, exact where provable: its
    Gaussian-rational roots (with true multiplicity) as ``RationalComplex``
    values, then the numeric roots of the rest.  ``coeffs`` are the
    component's values, or with D the (re, im) ints of D times them."""
    exact, numeric = _extract(coeffs, D)
    return [RationalComplex(Fraction(a, d), Fraction(b, d)) for a, b, d in exact] + numeric


def _extract(coeffs, D: Optional[int] = None) -> tuple[list, list]:
    """(exact points, numeric roots) of one split-component polynomial given
    as for :func:`_component_roots`: exact coefficients go to
    :func:`ratpoly.squarefree_roots`, which pulls out the Gaussian-rational
    roots as ``(a, b, d)`` points; others go to the numeric finder whole."""
    if len(coeffs) <= 1:
        return [], []
    if D is None:
        if not all(isinstance(c, RationalComplex) for c in coeffs):
            return [], complex_roots(coeffs)
        D, coeffs = gaussian_integers(coeffs)
    return squarefree_roots(D, coeffs, complex_roots)


def _trimmed(coeffs) -> list:
    """Degree-ascending algebra coefficients without vanishing leading ones;
    the polynomial must have degree 1 or more."""
    cs = list(normalize(coeffs))
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
        return evaluate(self.coeffs, value)


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


class _Algebra(NamedTuple):
    """What the per-root stage of :func:`_solve_components` needs of an
    algebra of order n, whose elements have 2**n coefficients and split
    onto 2**(n-1) complex components by the butterfly of ``multicomplex``
    (the bicomplex split is its order-2 case)."""

    order: int
    product: Callable        # (a, b) -> a*b on coefficient tuples
    half: Callable           # x -> x/2 on a float, as the element recombination rounds it
    split: Callable          # coefficient tuple -> its split components, as the element gives them
    element: Callable        # float coefficient tuple -> element
    exact_element: Callable  # (ints, d) -> the element with coefficients ints/d


_BICOMPLEX = _Algebra(
    order=2,
    product=bicomplex_product,
    # Bicomplex.recompose multiplies by HALF; a float times HALF is the
    # float times 0.5
    half=lambda x: x * 0.5,
    split=lambda coeffs: Bicomplex(*coeffs).decompose(),
    element=lambda coeffs: Bicomplex(*coeffs),
    exact_element=lambda ints, d: Bicomplex(*[Fraction(v, d) for v in ints]),
)


def solve(p: BicomplexPoly) -> RootSet:
    """All roots via the split; InfiniteFamily when a component vanishes."""
    return _solve_components([c.components() for c in p.coeffs], _BICOMPLEX)


def mc_solve(coeffs: Sequence[Multicomplex], order: Optional[int] = None) -> RootSet:
    """Multicomplex analogue of :func:`solve` with 2**(n-1) components."""
    cs = _trimmed(coeffs)
    n = cs[0].order if order is None else order
    for c in cs:
        if c.order != n:
            raise OrderMismatch(f"coefficient orders differ: {c.order} vs {n}")
    algebra = _Algebra(
        order=n,
        product=lambda a, b: multicomplex_product(a, b, n),
        half=_half,
        split=lambda coeffs: _element(n, coeffs).split(),
        element=lambda coeffs: _element(n, coeffs),
        exact_element=lambda ints, d: _element(n, _quotients(ints, d)),
    )
    return _solve_components([c.coeffs for c in cs], algebra)


def _integer_spectra(coeffs, order: int):
    """(D, spectra) for the degree-ascending coefficient tuples of an MC(order)
    polynomial when every coefficient is exact, else None: D the common
    denominator of all coefficients and spectra[k] the butterfly of the ints
    of D times coefficient k, whose entries s and s + 2**(order-1) are the
    Gaussian integer of D times its split component at flat index s."""
    if not all(_rational(c) for c in coeffs):
        return None
    width = 1 << order
    D, ints = common_denominator([x for c in coeffs for x in c])
    return D, [_butterfly(ints[k:k + width], order) for k in range(0, len(ints), width)]


def _integer_components(spectra, order: int) -> list:
    """The split component polynomials, in :meth:`Multicomplex.split` order,
    as the (re, im) int pairs of the spectra of :func:`_integer_spectra`,
    vanishing leading pairs dropped."""
    top = 1 << (order - 1)
    comps = []
    for s in _stage_signs(order):
        comp = [(v[s], v[s + top]) for v in spectra]
        while comp and comp[-1] == (0, 0):
            comp.pop()
        comps.append(comp)
    return comps


def _split_components(coeffs, algebra: _Algebra) -> list:
    """The split component polynomials of the degree-ascending coefficient
    tuples ``coeffs``, by the algebra's own split of each coefficient, as it
    gives them, vanishing leading values dropped."""
    splits = [algebra.split(c) for c in coeffs]
    return [list(normalize(s[i] for s in splits)) for i in range(len(splits[0]))]


def _substitution(coeffs, product, spectra):
    """The substitution check of the polynomial with degree-ascending
    coefficient tuples ``coeffs`` in an algebra's basis, ``product`` the
    algebra's kernel and ``spectra`` their :func:`_integer_spectra`: a
    function from a root to the residual |p(r)|, the norm of the
    coefficients of p(r) in the basis.  The root is its coefficient tuple,
    or, with an int d, the ints of d times an exact root.

    An exact root of a polynomial whose coefficients are all exact (ints
    and Fractions) is checked on the integer spectra: with D the common
    denominator of the coefficients, one forward butterfly takes d*r to its
    components y, Horner runs on each component on Gaussian integers,
    D * d**n * p(y/d) = sum (D*c_k) y**k d**(n-k), and one inverse butterfly
    gives 2**(order-1) * D * d**n * p(r) in the basis: O(order * 2**order +
    n * 2**order) int operations per root instead of n products.  It starts
    from the recombined coefficients, so it stays an independent check of
    the recombination.  Only a nonzero value is divided back, by int true
    division, which rounds as ``float(Fraction)`` does, so the residual is
    the one the element Horner gives, bit for bit, whichever d is used.
    A float root, and an exact one (as Fractions) of a polynomial with
    inexact coefficients, take the element Horner's operations in its
    order, ``acc * r`` by the kernel, then ``+ c`` coefficient by
    coefficient, so their residuals keep its bits too.
    """
    if spectra is not None:
        D, vectors = spectra
        width = len(vectors[0])
        order, top = width.bit_length() - 1, width >> 1
        # per flat index s, the Gaussian ints of component s, leading first
        comps = [[(v[s], v[s + top]) for v in reversed(vectors)] for s in range(top)]

    def residual(root, d=None) -> float:
        if d is not None and spectra is None:
            root, d = [Fraction(v, d) for v in root], None
        if d is None:
            acc = coeffs[-1]
            for c in reversed(coeffs[:-1]):
                acc = tuple(map(add, product(acc, root), c))
            return scalar_norm(acc)
        powers = [d]
        for _ in range(len(coeffs) - 2):
            powers.append(powers[-1] * d)
        v = _butterfly(root, order)
        for s, ((acc_re, acc_im), *rest) in enumerate(comps):
            y_re, y_im = v[s], v[s + top]
            for (c_re, c_im), scale in zip(rest, powers):
                acc_re, acc_im = (
                    acc_re * y_re - acc_im * y_im + c_re * scale,
                    acc_re * y_im + acc_im * y_re + c_im * scale,
                )
            v[s], v[s + top] = acc_re, acc_im
        if not any(v):
            return 0.0
        den = D * powers[-1] << (order - 1)
        return scalar_norm([x / den for x in _unbutterfly(v, order)])

    return residual


def _recombine(combo, order: int, half) -> tuple:
    """The coefficients of the element whose split components are the roots
    of ``combo``, by the inverse butterfly, as (coefficients, d).  A root's
    record is its float (real, imaginary) pair and its exact ``(a, b, d)``
    point, None for a float root.  When every root is exact the
    coefficients are the ints of d times the element, d being 2**(order-1)
    times the roots' common denominator; otherwise they are the
    recombination of the roots' floats, halved by ``half``, and d is None."""
    exact = [r[1] for r in combo]
    if None in exact:
        return tuple(_unbutterfly(_spectrum_list([r[0] for r in combo], order), order, half)), None
    den = math.lcm(*[e[2] for e in exact])
    pairs = [(p * (den // d), q * (den // d)) for p, q, d in exact]
    return _unbutterfly(_spectrum_list(pairs, order), order), den << (order - 1)


def _solve_components(coeffs, algebra: _Algebra) -> RootSet:
    """The roots of the polynomial with degree-ascending coefficient tuples
    ``coeffs`` in the algebra's basis.

    When every coefficient is exact, one common denominator and one
    butterfly per coefficient give every split component polynomial as
    Gaussian integers (:func:`_integer_spectra`); the extractor takes them
    as they are, and its exact points become root records directly.  Float
    and mixed coefficients take the algebra's own split.  Each component
    root is recorded once.  A combination of exact roots is recombined and
    substituted on ints, and only a root that passes becomes an element; any
    other combination is recombined and substituted on floats.  A root fails
    unless its residual is at most the tolerance, so a NaN residual fails.
    Roots are sorted by their split components, the float pairs of their
    combination.
    """
    spectra = _integer_spectra(coeffs, algebra.order)
    if spectra is None:
        D, comps = None, _split_components(coeffs, algebra)
    else:
        D, vectors = spectra
        comps = _integer_components(vectors, algebra.order)
    counts = tuple(max(len(c) - 1, 0) for c in comps)
    if any(not c for c in comps):
        free = tuple(i for i, c in enumerate(comps) if not c)
        constrained = {
            i: tuple(_component_roots(c, D)) for i, c in enumerate(comps) if c
        }
        return RootSet(
            kind="InfiniteFamily",
            counts=counts,
            family=InfiniteFamily(free_components=free, constrained_roots=constrained),
        )
    total = math.prod(counts)
    if total > MAX_ROOTS:
        raise TooManyRoots(f"{total} roots exceed the cap of {MAX_ROOTS} per solve")

    records = []
    for c in comps:
        exact, numeric = _extract(c, D)
        # int true division rounds a / d as float(Fraction(a, d)) does
        records.append(
            [((a / d, b / d), (a, b, d)) for a, b, d in exact]
            + [((z.real, z.imag), None) for z in numeric]
        )
    residual_of = _substitution(coeffs, algebra.product, spectra)
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
