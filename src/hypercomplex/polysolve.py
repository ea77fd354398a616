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

The complex root finder is Aberth-Ehrlich simultaneous iteration started
from the Newton polygon of |a_k|, one circle per edge (Bini 1996), falling
back to companion-matrix eigenvalues when its iterates miss the residual
bound; :func:`complex_roots` applies that one test to both, and a NaN
residual fails it.  It refuses a non-finite coefficient with
``ValueError`` before either runs.  Roots of exact-coefficient components
are extracted as Gaussian rationals by :func:`ratpoly.exact_roots`, shared
with ``surd``, so rational root sets (and their residuals) come out
exactly zero.  A component polynomial goes to
:func:`ratpoly.squarefree_roots`, which splits it into squarefree
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
The roots are the Cartesian product of the component root lists, so the
stage does once per component root what it can.  Each component root is
recorded once, as its float pair and, when exact, its Gaussian integer
over one denominator shared by every exact root of the solve; each
component's records are sorted once by float pair, and the product of the
sorted lists gives the roots in order, with no sort of the roots.  A
combination of exact roots is recombined on those ints by the inverse
butterfly (the bicomplex recombination is its order-2 case) and
substituted on the same ints: one forward butterfly takes the recombined
root back to its components, and Horner runs on Gaussian integers against
the coefficient spectra once per distinct component value, which every
later root with that component takes as kept; an inverse butterfly gives a
nonzero value in the basis.  At order n, with K = 2**(n-1) components of
degree m and R = m**K roots, Horner costs O(K*m**2) per solve and a root
O(n*2**n) plus K lookups.  It becomes an element only after it passes.
Other combinations are recombined and substituted on floats, with the
algebra's own product kernel, :func:`bicomplex.product` or
:func:`multicomplex.product`, which ``*`` wraps, so every residual has the
bits the element Horner gives.  A solve returns at most ``MAX_ROOTS``
roots; above that it raises :class:`TooManyRoots` before any root is
computed.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, itemgetter
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

    ``coeffs`` is degree-ascending and finite, with nonzero leading
    coefficient and degree >= 1.  Each returned root r satisfies
    |p(r)| <= 1e-10 * max(1, max|coeff|).
    """
    cs = [complex(c) for c in coeffs]
    if not all(map(cmath.isfinite, cs)):
        raise ValueError("coefficients must be finite")
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
        # the finders iterate on p / a_n, which no finder can use once it overflows
        if not all(cmath.isfinite(c / cs[-1]) for c in cs):
            raise NoConvergence(
                f"monic coefficients overflow: leading coefficient {abs(cs[-1]):.3e} "
                f"against {scale:.3e}"
            )
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


def _aberth_start(coeffs) -> list[complex]:
    """The deg starting points of :func:`_aberth`, from the Newton polygon of
    |a_k| (Bini 1996): the upper convex hull of (k, log|a_k|) over the
    nonzero a_k, by one monotone-chain pass.  An edge from i to j gets j - i
    points on the circle of radius (|a_i|/|a_j|)**(1/(j-i)), at angles
    2*pi*(m/(j-i) + i/deg) + 0.43, the offset keeping symmetric polynomials
    from locking the iteration.  The pass pops a vertex unless its left
    edge's circle is strictly smaller than its right edge's, so no two
    points coincide.  When a_0 .. a_{l-1} vanish, the l roots at 0 start on
    a circle of half the smallest radius, or of radius 1 if there is no
    edge."""
    deg = len(coeffs) - 1
    vertices = []  # (k, log|a_k|)
    radii = []     # radii[e]: the circle of the edge from vertex e to e + 1
    for k, c in enumerate(coeffs):
        if not c:
            continue
        y = math.log(abs(c))
        while vertices:
            i, yi = vertices[-1]
            # clamped to the normal float range: exp cannot overflow, and
            # the points of a circle stay distinct
            r = math.exp(max(-700.0, min(700.0, (yi - y) / (k - i))))
            if not radii or radii[-1] < r:
                radii.append(r)
                break
            vertices.pop()
            radii.pop()
        vertices.append((k, y))
    low = vertices[0][0]
    edges = [(0, low, radii[0] / 2 if radii else 1.0)] if low else []
    edges += [(i, j, r) for (i, _), (j, _), r in zip(vertices, vertices[1:], radii)]
    return [
        cmath.rect(r, 2 * math.pi * (m / (j - i) + i / deg) + 0.43)
        for i, j, r in edges
        for m in range(j - i)
    ]


def _aberth(coeffs) -> list[complex]:
    """Aberth-Ehrlich simultaneous iteration from :func:`_aberth_start`: the
    iterates once they settle, or after ``ABERTH_MAX_SWEEPS`` sweeps;
    :func:`complex_roots` checks them.  p and p' are evaluated by Horner
    from the leading coefficient and the Aberth sum is a left fold from the
    int 0, written out so that every iterate's bits follow from these
    operations alone."""
    deg = len(coeffs) - 1
    monic = [c / coeffs[-1] for c in coeffs]
    deriv = [k * monic[k] for k in range(1, deg + 1)]
    # leading first, for Horner
    p_lead, *p_rest = reversed(monic)
    d_lead, *d_rest = reversed(deriv)
    # from the polynomial iterated, whose coefficients may have underflowed
    zs = _aberth_start(monic)
    for _ in range(ABERTH_MAX_SWEEPS):
        settled = True
        for j in range(deg):
            z = zs[j]
            pj = p_lead
            for c in p_rest:
                pj = pj * z + c
            dj = d_lead
            for c in d_rest:
                dj = dj * z + c
            if dj == 0:
                zs[j] = z + (1e-6 + 1e-6j) * (1 + abs(z))
                settled = False
                continue
            w = pj / dj
            s = 0
            for k, zk in enumerate(zs):
                if k != j:
                    s = s + 1 / (z - zk)
            denom = 1 - w * s
            step = w if denom == 0 else w / denom
            zs[j] = z = z - step
            if abs(step) > 1e-14 * (1 + abs(z)):
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
    gives 2**(order-1) * D * d**n * p(r) in the basis.  The Horner value is
    kept by (component, y, d), so it runs once per distinct component
    value, not once per root: a root costs one butterfly and 2**(order-1)
    lookups, O(order * 2**order) int operations, plus the inverse butterfly
    when the value is not zero.  It starts from the recombined coefficients,
    so it stays an independent check of the recombination, and a wrong root
    misses the kept values unless each of its components is, over the same
    d, one already checked.  Only a nonzero value is divided back, by int true
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
        degree = len(coeffs) - 1
        # (s, y_re, y_im, d) -> D * d**n * p_s(y/d), the Horner value of
        # component s; d is in the key, so a root over another denominator
        # misses it
        kept = {}

    def component_value(key):
        s, y_re, y_im, d = key
        (acc_re, acc_im), *rest = comps[s]
        scale = 1
        for c_re, c_im in rest:
            scale *= d
            acc_re, acc_im = (
                acc_re * y_re - acc_im * y_im + c_re * scale,
                acc_re * y_im + acc_im * y_re + c_im * scale,
            )
        kept[key] = acc_re, acc_im
        return acc_re, acc_im

    def residual(root, d=None) -> float:
        if d is not None and spectra is None:
            root, d = [Fraction(v, d) for v in root], None
        if d is None:
            acc = coeffs[-1]
            for c in reversed(coeffs[:-1]):
                acc = tuple(map(add, product(acc, root), c))
            return scalar_norm(acc)
        v = _butterfly(root, order)
        for s in range(top):
            key = s, v[s], v[s + top], d
            v[s], v[s + top] = kept.get(key) or component_value(key)
        if not any(v):
            return 0.0
        den = D * d**degree << (order - 1)
        return scalar_norm([x / den for x in _unbutterfly(v, order)])

    return residual


def _recombine(combo, order: int, half, d: int) -> tuple:
    """The coefficients of the element whose split components are the roots
    of ``combo``, by the inverse butterfly, as (coefficients, d).  A root's
    record is its float (real, imaginary) pair, the Gaussian integer of D
    times it for an exact root or None for a float one, D the common
    denominator of all exact roots of the solve, and its index in its
    component's root list.  When every root is exact
    the coefficients are the ints of d times the element, d being the given
    2**(order-1) * D; otherwise they are the recombination of the roots'
    floats, halved by ``half``, and d is None."""
    exact = [r[1] for r in combo]
    if None in exact:
        return tuple(_unbutterfly(_spectrum_list([r[0] for r in combo], order), order, half)), None
    return _unbutterfly(_spectrum_list(exact, order), order), d


def _solve_components(coeffs, algebra: _Algebra) -> RootSet:
    """The roots of the polynomial with degree-ascending coefficient tuples
    ``coeffs`` in the algebra's basis.

    When every coefficient is exact, one common denominator and one
    butterfly per coefficient give every split component polynomial as
    Gaussian integers (:func:`_integer_spectra`); the extractor takes them
    as they are, and its exact points become root records directly.  Float
    and mixed coefficients take the algebra's own split.  Each component
    root is recorded once, an exact one over the common denominator of all
    exact roots of the solve.  A combination of exact roots is recombined
    and substituted on ints, and only a root that passes becomes an
    element; any other combination is recombined and substituted on floats.
    A root fails unless its residual is at most the tolerance, so a NaN
    residual fails; the error reports the failure first in the product of
    the component root lists as the extractor gives them.

    Roots are sorted by their split components, the float pairs of their
    combination.  Each component's records are sorted once, stably, and the
    product of the sorted lists, each run of equal float pairs expanded in
    list order, yields the combinations in that order with ties in the
    order of the unsorted product: O(K * m log m) comparisons for K
    components of degree m, not O(R log R) for the R roots.
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

    found = [_extract(c, D) for c in comps]
    den = math.lcm(*[d for exact, _ in found for _, _, d in exact])
    grouped = []
    for exact, numeric in found:
        # int true division rounds a / d as float(Fraction(a, d)) does
        records = [
            ((a / d, b / d), (a * (den // d), b * (den // d)), i)
            for i, (a, b, d) in enumerate(exact)
        ] + [((z.real, z.imag), None, i) for i, z in enumerate(numeric, len(exact))]
        records.sort(key=itemgetter(0))
        grouped.append([list(tie) for _, tie in itertools.groupby(records, itemgetter(0))])
    residual_of = _substitution(coeffs, algebra.product, spectra)
    tol = SOLVE_RESIDUAL_RTOL * (1.0 + max(scalar_norm(c) for c in coeffs))
    d = den << (algebra.order - 1)
    roots, residuals, failed = [], [], None
    # the product of the sorted lists, each run of equal float pairs taken in
    # list order: the combinations sorted by their float pairs, ties in the
    # order of the unsorted product
    for combo in itertools.chain.from_iterable(
        itertools.product(*ties) for ties in itertools.product(*grouped)
    ):
        values, root_d = _recombine(combo, algebra.order, algebra.half, d)
        residual = residual_of(values, root_d)
        if not residual <= tol:
            # the failure first in the unsorted product, whatever the sort
            at = tuple(r[2] for r in combo)
            if failed is None or at < failed[0]:
                failed = at, residual
        elif failed is None:
            roots.append(algebra.element(values) if root_d is None else algebra.exact_element(values, root_d))
            residuals.append(residual)
    if failed is not None:
        raise NoConvergence(
            f"recombined root fails substitution: residual {failed[1]:.3e} > {tol:.3e}"
        )
    return RootSet(kind="Finite", counts=counts, roots=tuple(roots), residuals=tuple(residuals))
