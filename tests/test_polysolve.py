import cmath
import math
import random
import time
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercomplex.bicomplex import (
    G,
    G_PRIME,
    H,
    I,
    ONE,
    ZERO,
    Bicomplex,
    SplitPair,
)
from hypercomplex import polysolve
from hypercomplex.bicomplex import product as bicomplex_product
from hypercomplex.multicomplex import Multicomplex
from hypercomplex.multicomplex import product as multicomplex_product
from hypercomplex.polysolve import (
    MAX_ROOTS,
    BicomplexPoly,
    NoConvergence,
    RootSet,
    TooManyRoots,
    ZeroPolynomial,
    complex_roots,
    mc_solve,
    solve,
)
from hypercomplex.polysolve import (
    _BICOMPLEX,
    _component_roots,
    _integer_spectra,
    _split_components,
    _substitution,
)
from hypercomplex import ratpoly as rp
from hypercomplex.ratpoly import exact_roots, rational_roots
from hypercomplex.scalars import RationalComplex, common_denominator, scalar_norm

from oracles import element_path_root_set, newton_polygon_radii, reference_aberth
from strategies import bicomplexes, multicomplexes, small_fractions, small_ints


def split_polynomial(p: BicomplexPoly) -> list:
    """The two split component polynomials of p, by the solver's own split."""
    return _split_components([c.components() for c in p.coeffs], _BICOMPLEX)


def expand_polynomials(*factors):
    """Ascending coefficients of the product of ascending factors."""
    out = [1]
    for f in factors:
        prod = [0j] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


def expand_from_roots(roots):
    """Ascending coefficients of prod (z - r) -- the planting oracle."""
    coeffs = [1 + 0j]
    for r in roots:
        coeffs = [0j] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= r * coeffs[i + 1]
    return coeffs


# z**n - c with |a_k| spread over 11 to 62 decades
WIDE_SPREAD = [
    [-1e30] + [0] * 9 + [1],
    [-1e62, 0, 0, 0, 0, 1],
    [-1e30] + [0] * 19 + [1],
    [-1e11] + [0] * 29 + [1],
]
WIDE_SPREAD_IDS = ["z^10-1e30", "z^5-1e62", "z^20-1e30", "z^30-1e11"]


class TestComplexRoots:
    def test_quadratic_with_imaginary_roots(self):
        roots = complex_roots([1, 0, 1])
        assert sorted((round(r.real, 12), round(r.imag, 12)) for r in roots) == [
            (0.0, -1.0),
            (0.0, 1.0),
        ]

    def test_simple_factored_quadratic(self):
        roots = complex_roots([0, -1, 1])  # w^2 - w
        assert sorted(round(abs(r), 12) for r in roots) == [0.0, 1.0]

    def test_planted_cubic_recovered(self):
        rng = random.Random(11)
        for _ in range(20):
            planted = [
                complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(3)
            ]
            got = complex_roots(expand_from_roots(planted))
            assert len(got) == 3
            worst = max(min(abs(g - p) for g in got) for p in planted)
            assert worst <= 1e-9

    def test_residual_contract(self):
        rng = random.Random(13)
        for deg in (1, 2, 3, 4, 5, 8):
            coeffs = [
                complex(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(deg)
            ] + [1.0 + 0j]
            scale = max(1.0, max(abs(c) for c in coeffs))
            for r in complex_roots(coeffs):
                value = coeffs[-1]
                for c in reversed(coeffs[:-1]):
                    value = value * r + c
                assert abs(value) <= 1e-10 * scale

    def test_multiple_root_count_and_accuracy(self):
        # (z - 1)^3: multiplicity preserved; float accuracy is eps**(1/3)-ish
        roots = complex_roots(expand_from_roots([1, 1, 1]))
        assert len(roots) == 3
        assert all(abs(r - 1) <= 1e-3 for r in roots)

    def test_nearby_roots_merged_to_one_cluster(self):
        a, b = 1.0, 1.0 + 3e-8  # inside the 1e-7 merge radius
        roots = complex_roots(expand_from_roots([a, b]))
        assert len(roots) == 2
        assert len({(round(r.real, 12), round(r.imag, 12)) for r in roots}) == 1

    @pytest.mark.parametrize("coeffs", WIDE_SPREAD, ids=WIDE_SPREAD_IDS)
    def test_wide_coefficient_spread(self, coeffs):
        # every root lies on |z| = |c|**(1/n), the Newton polygon's one
        # circle, where Aberth starts; from a circle as large as
        # 1 + max|a_k/a_n| Horner overflows to inf
        n, c = len(coeffs) - 1, -coeffs[0]
        roots = complex_roots(coeffs)
        assert len(roots) == n
        assert all(abs(abs(r) / c ** (1 / n) - 1) <= 1e-12 for r in roots)

    @pytest.mark.parametrize("coeffs", WIDE_SPREAD, ids=WIDE_SPREAD_IDS)
    def test_wide_coefficient_spread_without_the_fallback(self, coeffs, monkeypatch):
        def no_fallback(cs):
            raise AssertionError("the companion fallback ran")

        monkeypatch.setattr(polysolve, "_companion_roots", no_fallback)
        self.test_wide_coefficient_spread(coeffs)

    def test_fallback_roots_with_a_nan_residual_are_refused(self, monkeypatch):
        # non-finite Aberth iterates send z**5 - 1e62 to the fallback, whose
        # roots as large as 1e200 overflow Horner to inf * 0 = nan, and a
        # NaN residual must fail
        monkeypatch.setattr(polysolve, "_aberth", lambda cs: [complex(math.nan, math.nan)] * 5)
        monkeypatch.setattr(polysolve, "_companion_roots", lambda cs: [complex(1e200, 0)] * 5)
        with pytest.raises(NoConvergence, match="worst residual nan exceeds"):
            complex_roots([-1e62, 0, 0, 0, 0, 1])

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            complex_roots([1])
        with pytest.raises(ValueError):
            complex_roots([1, 0])

    @pytest.mark.parametrize(
        "coeffs",
        [[1, math.inf, 1], [math.inf, 1], [1, math.nan, 1], [1, complex(0, -math.inf)], [0, 1, math.inf]],
        ids=["quadratic-inf", "linear-inf", "nan", "imaginary-inf", "leading-inf"],
    )
    def test_non_finite_coefficients_rejected_before_a_finder_runs(self, coeffs, monkeypatch):
        def no_finder(cs):
            raise AssertionError("a finder ran")

        monkeypatch.setattr(polysolve, "_aberth", no_finder)
        monkeypatch.setattr(polysolve, "_companion_roots", no_finder)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="coefficients must be finite"):
                complex_roots(coeffs)


def float_bits(zs) -> list:
    return [x.hex() for z in zs for x in (z.real, z.imag)]


class TestAberthBits:
    """The finder's iterates keep the bits of the reference iteration in
    ``tests/oracles.py``, settled or not."""

    @settings(deadline=None, max_examples=60)
    @given(
        coeffs=st.integers(min_value=2, max_value=20).flatmap(
            lambda deg: st.lists(
                st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
                min_size=deg,
                max_size=deg,
            )
        ),
        lead=st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False),
    )
    def test_iterates_match_the_reference(self, coeffs, lead):
        cs = [*coeffs, lead]
        assert float_bits(polysolve._aberth(cs)) == float_bits(reference_aberth(cs))

    @pytest.mark.parametrize(
        "coeffs",
        [
            [-1e30] + [0] * 9 + [1],
            [-1e62, 0, 0, 0, 0, 1],
            [0, 0, 1],
            [1, 0, 0, 0, 0, 0, 0, 0, 1],
            [-1e30] + [0] * 19 + [1],
            [0, 0, 0, 1e-8, 0, 1],
        ],
        ids=["z^10-1e30", "z^5-1e62", "z^2", "z^8+1", "z^20-1e30", "z^5+1e-8z^3"],
    )
    def test_fixed_cases_match_the_reference(self, coeffs):
        cs = [complex(c) for c in coeffs]
        assert float_bits(polysolve._aberth(cs)) == float_bits(reference_aberth(cs))


# a coefficient: 0, or modulus 10**-30 .. 10**30 at any phase
wide_coefficients = st.one_of(
    st.just(0j),
    st.builds(
        cmath.rect,
        st.floats(min_value=-30, max_value=30).map(lambda e: 10.0**e),
        st.floats(min_value=0, max_value=2 * math.pi),
    ),
)


class TestAberthStart:
    """The Newton-polygon start: deg finite, pairwise distinct points whose
    moduli are the polygon's radii, each as often as its edge is long."""

    @settings(deadline=None, max_examples=200)
    @given(
        coeffs=st.lists(wide_coefficients, min_size=1, max_size=20),
        lead=wide_coefficients.filter(bool),
    )
    def test_points_lie_on_the_newton_polygon_circles(self, coeffs, lead):
        cs = [*coeffs, lead]
        zs = polysolve._aberth_start(cs)
        assert len(zs) == len(cs) - 1
        assert all(map(cmath.isfinite, zs))
        assert len(set(zs)) == len(zs)
        moduli = sorted(map(abs, zs))
        for got, want in zip(moduli, sorted(newton_polygon_radii(cs))):
            assert abs(got - want) <= 1e-9 * want

    def test_vanishing_low_coefficients_start_inside(self):
        # z**2: no edge, both points on the unit circle; z**2 (z - 4): the
        # two roots at 0 start on half the edge's circle
        assert sorted(map(abs, polysolve._aberth_start([0, 0, 1]))) == pytest.approx([1, 1])
        assert sorted(map(abs, polysolve._aberth_start([0, 0, -4, 1]))) == pytest.approx([2, 2, 4])

    def test_the_start_is_that_of_the_polynomial_iterated(self):
        # a_0/a_3 = 1e-600 underflows, so the iteration solves z**3; started
        # on the circle of 1e-200 instead, p' underflows to 0 at every
        # point, and the nudge for p' = 0 merges them into one
        zs = polysolve._aberth([1e-300, 0, 0, 1e300])
        assert len(zs) == 3
        assert all(map(cmath.isfinite, zs))


class TestAgainstMpmath:
    """Every root of a wide-spread polynomial matches mpmath's within 1e-9
    relative."""

    @pytest.mark.parametrize(
        "coeffs",
        WIDE_SPREAD
        + [
            [-1e-20, 0, 0, 0, 0, 0, 1],
            [-1, 0, 0, 0, 1e-30],
            expand_polynomials([1e-12, 0, 0, 0, 1], [-1e12, 0, 0, 0, 1]),
            expand_polynomials([1e-12j, 0, 0, 0, 1], [-1e8, 0, 0, 0, 1]),
            expand_polynomials([1e-8, 0, 1], [-1e6, 0, 0, 1], [-3, 1]),
        ],
        ids=WIDE_SPREAD_IDS
        + ["z^6-1e-20", "1e-30z^4-1", "(z^4+1e-12)(z^4-1e12)", "(z^4+1e-12i)(z^4-1e8)", "(z^2+1e-8)(z^3-1e6)(z-3)"],
    )
    def test_roots_match_mpmath(self, coeffs):
        mpmath = pytest.importorskip("mpmath")
        reference = [
            complex(r)
            for r in mpmath.polyroots([mpmath.mpc(c) for c in reversed(coeffs)], maxsteps=500, extraprec=500)
        ]
        roots = complex_roots(coeffs)
        assert len(roots) == len(reference)
        for r in roots:
            assert min(abs(r - q) / abs(q) for q in reference) <= 1e-9


class TestSplitPolynomial:
    def test_real_coefficients_duplicate(self):
        p = BicomplexPoly((ONE, ZERO, ONE))
        c1, c2 = split_polynomial(p)
        assert c1 == c2
        assert [z.real for z in c1] == [1, 0, 1]

    def test_effective_degrees_drop_with_nullific_leading_terms(self):
        # g'*z^2 - z splits into (-w, degree 1) and (w^2 - w, degree 2)
        p = BicomplexPoly((ZERO, -ONE, G_PRIME))
        c1, c2 = split_polynomial(p)
        assert len(c1) - 1 == 1
        assert len(c2) - 1 == 2

    def test_identically_zero_component_is_empty(self):
        p = BicomplexPoly((ZERO, G))
        c1, c2 = split_polynomial(p)
        assert len(c1) == 2
        assert c2 == []


class TestSolve:
    def test_z_squared_plus_one_has_the_four_exact_roots(self):
        rs = solve(BicomplexPoly((ONE, ZERO, ONE)))
        assert rs.kind == "Finite"
        assert rs.counts == (2, 2)
        assert set(rs.roots) == {I, -I, H, -H}
        assert rs.residuals == (0.0, 0.0, 0.0, 0.0)

    def test_classical_roots_appear_in_both_imaginary_planes(self):
        # a real polynomial keeps its classical roots, re-embedded through
        # both the i and the h plane
        rs = solve(BicomplexPoly((ONE, ZERO, ONE)))
        assert I in rs.roots and H in rs.roots

    def test_gprime_quadratic(self):
        rs = solve(BicomplexPoly((ZERO, -ONE, G_PRIME)))
        assert rs.kind == "Finite"
        assert rs.counts == (1, 2)
        assert set(rs.roots) == {ZERO, G_PRIME}
        # g'^3 - g' = 0 exactly
        assert G_PRIME * G_PRIME * G_PRIME - G_PRIME == ZERO

    def test_g_times_z_is_an_infinite_family(self):
        rs = solve(BicomplexPoly((ZERO, G)))
        assert rs.kind == "InfiniteFamily"
        assert rs.family.free_components == (1,)
        assert rs.family.constrained_roots == {0: (RationalComplex(Fraction(0)),)}
        # spot check: elements of the second set really do solve g*z = 0
        for second_set_element in (G_PRIME, Bicomplex(1, 0, 0, 1)):
            assert (G * second_set_element).is_zero()

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomial):
            BicomplexPoly((ZERO, ZERO))

    def test_count_law_random_split_degrees(self):
        rng = random.Random(42)
        for _ in range(10):
            d1, d2 = rng.randint(1, 4), rng.randint(1, 4)
            c1 = [
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(d1)
            ] + [1 + 0j]
            c2 = [
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(d2)
            ] + [1 + 0j]
            length = max(len(c1), len(c2))
            c1 += [0j] * (length - len(c1))
            c2 += [0j] * (length - len(c2))
            coeffs = tuple(
                Bicomplex.recompose(SplitPair(z1, z2)) for z1, z2 in zip(c1, c2)
            )
            rs = solve(BicomplexPoly(coeffs))
            assert rs.kind == "Finite"
            assert rs.counts == (d1, d2)
            assert len(rs.roots) == d1 * d2

    def test_regular_leading_coefficient_gives_m_squared_roots(self):
        rng = random.Random(77)
        for _ in range(5):
            coeffs = [
                Bicomplex(*(rng.uniform(-2, 2) for _ in range(4))) for _ in range(3)
            ] + [ONE]
            rs = solve(BicomplexPoly(tuple(coeffs)))
            assert rs.counts == (3, 3)
            assert len(rs.roots) == 9

    def test_substitution_residuals_within_tolerance(self):
        rng = random.Random(5)
        coeffs = tuple(
            Bicomplex(*(rng.uniform(-3, 3) for _ in range(4))) for _ in range(4)
        )
        p = BicomplexPoly(coeffs + (ONE,))
        rs = solve(p)
        from hypercomplex.scalars import scalar_norm

        tol = 1e-9 * (1.0 + max(scalar_norm(c.components()) for c in p.coeffs))
        for root, residual in zip(rs.roots, rs.residuals):
            assert residual <= tol
            assert scalar_norm(p(root).components()) <= tol

    def test_roots_sorted_by_split_components(self):
        rs = solve(BicomplexPoly((ONE, ZERO, ONE)))
        keys = []
        for r in rs.roots:
            z1, z2 = r.decompose()
            keys.append(
                (float(z1.real), float(z1.imag), float(z2.real), float(z2.imag))
            )
        assert keys == sorted(keys)


class TestMcSolve:
    def test_order_three_z_squared_plus_one_has_sixteen_roots(self):
        one = Multicomplex.scalar(3, 1)
        zero = Multicomplex.scalar(3, 0)
        rs = mc_solve([one, zero, one])
        assert rs.kind == "Finite"
        assert rs.counts == (2, 2, 2, 2)
        assert len(rs.roots) == 16
        # spot-verify five roots by substitution, exactly
        for root in rs.roots[::3]:
            assert (root * root + one).is_zero()

    def test_order_two_agrees_with_the_bicomplex_solver(self):
        rng = random.Random(99)
        for _ in range(20):
            coeffs_bc = tuple(
                Bicomplex(*(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(4)))
                for _ in range(3)
            ) + (ONE,)
            try:
                rs_bc = solve(BicomplexPoly(coeffs_bc))
            except ZeroPolynomial:
                continue
            rs_mc = mc_solve([Multicomplex.from_bicomplex(c) for c in coeffs_bc])
            assert rs_mc.kind == rs_bc.kind
            if rs_bc.kind == "Finite":
                assert len(rs_mc.roots) == len(rs_bc.roots)
                def key(values):
                    return tuple(
                        part for z in values for part in (float(z.real), float(z.imag))
                    )

                got = sorted(key(r.split()) for r in rs_mc.roots)
                want = sorted(key(r.decompose()) for r in rs_bc.roots)
                for g, w in zip(got, want):
                    assert all(abs(x - y) <= 1e-9 for x, y in zip(g, w))

    def test_zero_component_gives_infinite_family(self):
        g3 = Multicomplex.unsplit(
            [
                RationalComplex(Fraction(1)),
                RationalComplex(Fraction(0)),
                RationalComplex(Fraction(1)),
                RationalComplex(Fraction(1)),
            ],
            3,
        )
        zero = Multicomplex.scalar(3, 0)
        rs = mc_solve([zero, g3])
        assert rs.kind == "InfiniteFamily"
        assert rs.family.free_components == (1,)


class TestExactDeflation:
    def test_a_non_root_candidate_stays_numeric(self):
        # a finder whose roots round to 1 and -1, no roots of z**2 + 1: no
        # exact root, and the finder's roots come back whole
        coeffs = [RationalComplex(Fraction(c)) for c in (1, 0, 1)]

        def finder(cs):
            return [complex(1.1, 0.2), complex(-0.9, -0.3)]

        exact, numeric = exact_roots(*rp.gaussian_integers(coeffs), finder)
        assert exact == []
        assert numeric == finder(coeffs)


# -- exact checks on scaled Gaussian integers ---------------------------------

gaussian_rationals = st.builds(RationalComplex, small_fractions, small_fractions)
exact_scalars = st.one_of(small_fractions, small_ints)


def rational_horner(coeffs, x):
    """p(x) in RationalComplex arithmetic, the check the integer test replaces."""
    acc = RationalComplex(Fraction(0))
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def element_horner(coeffs, x):
    """p(x) in element arithmetic, the substitution the integer check replaces."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def basis_norm(value) -> float:
    return scalar_norm(value.components() if isinstance(value, Bicomplex) else value.coeffs)


def times_roots(cofactor, roots):
    """Ascending coefficients of cofactor(z) * prod (z - r)."""
    coeffs = list(cofactor)
    for r in roots:
        shifted = [RationalComplex(Fraction(0))] + coeffs
        for i, c in enumerate(coeffs):
            shifted[i] = shifted[i] - r * c
        coeffs = shifted
    return coeffs


def integer_pairs(x):
    """The ``(a, b, d)`` point of x, the Gaussian integer a + b*i over the
    least common denominator d of both parts, as the integer check takes
    it."""
    d = math.lcm(x.re.denominator, x.im.denominator)
    return x.re.numerator * (d // x.re.denominator), x.im.numerator * (d // x.im.denominator), d


def primitive_lead(scaled) -> tuple:
    """The leading Gaussian integer of ``scaled`` over the content of all
    its parts, as the extractor rounds with it."""
    content = math.gcd(*(part for pair in scaled for part in pair))
    return scaled[-1][0] // content, scaled[-1][1] // content


class TestGaussianIntegerVanishing:
    @settings(deadline=None)
    @given(
        st.lists(gaussian_rationals, min_size=1, max_size=4),
        st.lists(gaussian_rationals, min_size=1, max_size=3).filter(lambda cs: cs[-1]),
        st.floats(min_value=-1e-3, max_value=1e-3),
    )
    def test_agrees_with_rational_horner(self, roots, cofactor, noise):
        coeffs = times_roots(cofactor, roots)
        _, scaled = rp.gaussian_integers(coeffs)
        lead = primitive_lead(scaled)
        L = RationalComplex(Fraction(lead[0]), Fraction(lead[1]))

        def vanishes(x):
            return rp._horner(scaled, *integer_pairs(x)) is not None

        assert all(vanishes(r) for r in roots)
        points = [RationalComplex(Fraction(0))]
        for r in roots:
            # the rational root theorem: L*r is a Gaussian integer
            assert (L * r).re.denominator == (L * r).im.denominator == 1
            z = complex(r) + complex(noise, -noise)
            a, b, d = rp._rounded(lead, z)
            x = RationalComplex(Fraction(a, d), Fraction(b, d))
            assert d > 0 and math.gcd(a, b, d) == 1
            # the one candidate is the Gaussian integer nearest L*z over L,
            # so it is r when L*(z - r) is within 1/2 in each coordinate
            assert (L * x).re.denominator == (L * x).im.denominator == 1
            error = L * (RationalComplex(Fraction(z.real), Fraction(z.imag)) - r)
            if max(abs(error.re), abs(error.im)) < Fraction(1, 2):
                assert x == r
            points += [r, x]
        for x in points:
            assert vanishes(x) == (not rational_horner(coeffs, x))


class TestRounding:
    def test_calls_no_limit_denominator(self, monkeypatch):
        def refuse(self, max_denominator=10**6):
            raise AssertionError("limit_denominator called")

        monkeypatch.setattr(Fraction, "limit_denominator", refuse)
        # (z - 1/2)(z - 2i/3)(z**2 - 2): two Gaussian-rational hits, one
        # irrational pair left numeric
        coeffs = times_roots(
            [RationalComplex(Fraction(c)) for c in (-2, 0, 1)],
            [RationalComplex(Fraction(1, 2)), RationalComplex(Fraction(0), Fraction(2, 3))],
        )
        roots = _component_roots(coeffs)
        hits = [RationalComplex(Fraction(0), Fraction(2, 3)), RationalComplex(Fraction(1, 2))]
        assert roots[:2] == hits
        assert not any(isinstance(r, RationalComplex) for r in roots[2:])
        # the surd stock roots: (x - 1/3)(x**2 - 2)
        assert rational_roots((Fraction(2, 3), -2, Fraction(-1, 3), 1))[0] == [Fraction(1, 3)]

    def test_one_point_per_root(self):
        assert rp._rounded((1, 0), complex(1 / 3, 0.5)) == (0, 1, 1)   # 0.5 rounds up
        assert rp._rounded((-3, 0), complex(1 / 3, 1e-9)) == (1, 0, 3)
        # L = 2 + i: L*(0.8 + 0.6i) is 1 + 2i, and (1 + 2i)/(2 + i) = (4 + 3i)/5
        assert rp._rounded((2, 1), complex(0.8, 0.6)) == (4, 3, 5)
        assert rp._rounded((3**40, 0), complex(2.0, 0.0)) == (2, 0, 1)   # exact past 2**53
        assert rp._rounded((1, 0), complex(math.nan, 0.0)) is None
        assert rp._rounded((1, 0), complex(1.0, math.inf)) is None


def test_complex_roots_runs_once_per_deflated_polynomial(monkeypatch):
    calls = []
    original = polysolve.complex_roots
    monkeypatch.setattr(polysolve, "complex_roots", lambda cs: calls.append(len(cs)) or original(cs))
    # (z - 1)(z**2 - 2): 1 snaps, the irrational pair does not
    coeffs = [RationalComplex(Fraction(c)) for c in (2, -2, -1, 1)]
    roots = _component_roots(coeffs)
    assert roots[0] == RationalComplex(Fraction(1))
    assert calls == [4, 3]


def counting_complex_roots(monkeypatch) -> list:
    """Patch ``complex_roots`` to record the length of each coefficient list
    it is run on."""
    calls = []
    original = polysolve.complex_roots
    monkeypatch.setattr(polysolve, "complex_roots", lambda cs: calls.append(len(cs)) or original(cs))
    return calls


def rc(re, im=0):
    return RationalComplex(Fraction(re), Fraction(im))


class TestOneFinderRun:
    def test_runs_once_when_every_root_is_exact_and_simple(self, monkeypatch):
        calls = counting_complex_roots(monkeypatch)
        planted = [rc(Fraction(2, 3), -1), rc(1), rc(0, Fraction(-1, 2)), rc(-3, 4)]
        coeffs = times_roots([rc(Fraction(5, 2), 1)], planted)
        assert _component_roots(coeffs) == sorted(planted, key=lambda z: (z.re, z.im))
        assert calls == [5]

    def test_a_multiple_root_takes_a_run_per_squarefree_factor(self, monkeypatch):
        # (z - 2/3 + i)**2 (z - 1)(z + i/2): the squarefree split gives
        # (z - 1)(z + i/2), all of whose roots one run finds, and the double
        # root's factor, of degree 1
        calls = counting_complex_roots(monkeypatch)
        planted = [rc(Fraction(2, 3), -1), rc(Fraction(2, 3), -1), rc(1), rc(0, Fraction(-1, 2))]
        coeffs = times_roots([rc(Fraction(5, 2), 1)], planted)
        assert _component_roots(coeffs) == sorted(planted, key=lambda z: (z.re, z.im))
        assert calls == [3, 2]

    def test_the_root_that_proposed_a_hit_keeps_proposing(self, monkeypatch):
        # (z)(z - i/2)(z - 1): one run finds all three
        calls = counting_complex_roots(monkeypatch)
        coeffs = times_roots([rc(1)], [rc(0), rc(0, Fraction(1, 2)), rc(1)])
        assert _component_roots(coeffs) == [rc(0), rc(0, Fraction(1, 2)), rc(1)]
        assert calls == [4]
        # a finder that sees only the root near i/2: on 2z**2 - i*z, L = 2
        # rounds it to i/2; on the quotient z the same root proposes again,
        # and L = 1 rounds it to 0
        runs = []

        def finder(cs):
            runs.append(len(cs))
            return [complex(1e-9, 0.4999)]

        two = times_roots([rc(1)], [rc(0), rc(0, Fraction(1, 2))])
        exact, numeric = exact_roots(*rp.gaussian_integers(two), finder)
        assert exact == [(0, 0, 1), (0, 1, 2)]
        assert (numeric, runs) == ([], [3, 2])

    def test_constrained_exact_roots_come_out_sorted(self):
        # one run finds 7/10 and 1, in the finder's order; they come out
        # sorted by value
        zero = rc(0)
        component = times_roots([rc(1)], [rc(Fraction(7, 10)), rc(1)])
        p = BicomplexPoly(tuple(Bicomplex.recompose(SplitPair(c, zero)) for c in component))
        rs = solve(p)
        assert rs.kind == "InfiniteFamily"
        assert rs.family.constrained_roots == {0: (rc(Fraction(7, 10)), rc(1))}


float_scalars = st.floats(min_value=-4, max_value=4)
mixed_scalars = st.one_of(exact_scalars, float_scalars, st.sampled_from([0, 0.0, -0.0]))


def kernel_of(element):
    """(coefficient tuple of an element, product kernel, order) for its
    algebra; the bicomplex numbers are order 2."""
    if isinstance(element, Bicomplex):
        return Bicomplex.components, bicomplex_product, 2
    order = element.order
    return Multicomplex.components, lambda a, b: multicomplex_product(a, b, order), order


def substitution_of(coeffs, element):
    """The substitution check of ``coeffs`` in the algebra of ``element``;
    exact coefficients take the integer spectra of that algebra's order."""
    parts, product, order = kernel_of(element)
    tuples = [parts(c) for c in coeffs]
    return _substitution(tuples, product, _integer_spectra(tuples, order))


class TestIntegerSubstitution:
    """Exact roots are substituted on the integer spectra of the algebra's
    order, 2 for the bicomplex numbers; a nonzero value is divided back so
    the residual is the element Horner's, bit for bit.  Other roots take the
    element Horner's operations on coefficient tuples."""

    @pytest.mark.parametrize(
        "algebra, scalars",
        [
            (algebra, scalars)
            for scalars in (exact_scalars, float_scalars, mixed_scalars)
            for algebra in ("bicomplex", 2, 3, 4)
        ],
        ids=[
            f"{algebra}{kind}"
            for kind in ("", "-float", "-mixed")
            for algebra in ("bicomplex", "order2", "order3", "order4")
        ],
    )
    @settings(deadline=None)
    @given(data=st.data())
    def test_matches_element_horner(self, algebra, scalars, data):
        if algebra == "bicomplex":
            elements = bicomplexes(scalars)
        else:
            elements = multicomplexes(algebra, scalars)
        coeffs = data.draw(st.lists(elements, min_size=2, max_size=5))
        x = data.draw(elements)
        parts = kernel_of(x)[0]
        residual = substitution_of(coeffs, x)
        want = repr(basis_norm(element_horner(coeffs, x)))
        assert repr(residual(parts(x))) == want
        if x.is_exact():
            # an exact root as ints over any denominator
            d, ints = common_denominator(parts(x))
            assert repr(residual([3 * v for v in ints], 3 * d)) == want

    def test_exact_root_gives_exact_zero(self):
        for order in (2, 3, 4):
            one, zero = Multicomplex.scalar(order, 1), Multicomplex.scalar(order, 0)
            residual = substitution_of([one, zero, one], one)
            for unit in range(order):
                assert residual(Multicomplex.unit(order, unit).coeffs) == 0.0
        residual = substitution_of([ONE, ZERO, ONE], ONE)
        assert residual(I.components()) == residual(H.components()) == 0.0


def chosen_root_polynomial(rng, order, degree, irrational):
    """Multicomplex coefficients whose split components have chosen
    Gaussian-rational roots and a chosen leading value; with ``irrational``
    one component also has the factor z**2 - 2, whose roots stay numeric."""
    one = RationalComplex(Fraction(1))
    comps = []
    for k in range(1 << (order - 1)):
        roots = [
            RationalComplex(Fraction(rng.randint(-4, 4), q), Fraction(rng.randint(-4, 4), q))
            for q in (rng.randint(1, 4) for _ in range(degree))
        ]
        lead = RationalComplex(Fraction(rng.randint(1, 3), rng.randint(1, 2)), Fraction(rng.randint(-2, 2)))
        cofactor = [RationalComplex(Fraction(-2)), RationalComplex(Fraction(0)), lead] if irrational and k == 0 else [lead]
        comps.append(times_roots(cofactor, roots))
    top = max(len(c) for c in comps)
    comps = [c + [0 * one] * (top - len(c)) for c in comps]
    return [Multicomplex.unsplit([c[j] for c in comps], order) for j in range(top)]


def random_polynomial(rng, order, degree, kind):
    """Monic, with float components in [-1, 1] or integer ones in [-3, 3]."""
    def scalar():
        return rng.uniform(-1.0, 1.0) if kind == "float" else rng.randint(-3, 3)

    return [
        Multicomplex(order, tuple(scalar() for _ in range(1 << order))) for _ in range(degree)
    ] + [Multicomplex.scalar(order, 1)]


class TestRootSetMatchesElementPath:
    """``solve`` and ``mc_solve`` against the per-root stage written with
    element operations, ``repr`` for ``repr``: roots, component types,
    residuals and order."""

    @pytest.mark.parametrize("kind", ["chosen", "mixed", "gauss", "float"])
    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_same_repr(self, order, kind):
        rng = random.Random(f"{kind}:{order}")
        degree = {2: 3, 3: 2, 4: 2}[order]
        for _ in range(3 if order < 4 else 1):
            if kind in ("chosen", "mixed"):
                coeffs = chosen_root_polynomial(rng, order, degree - (kind == "mixed"), kind == "mixed")
            else:
                coeffs = random_polynomial(rng, order, degree, kind)
            assert repr(mc_solve(coeffs)) == repr(element_path_root_set(coeffs))
            if order == 2:
                bc = [Bicomplex(*c.coeffs) for c in coeffs]
                assert repr(solve(BicomplexPoly(tuple(bc)))) == repr(element_path_root_set(bc))

    def test_exact_roots_of_a_polynomial_with_a_float_zero(self):
        # the split of (-1, 0.0, 0, 0) is exact, so every root is, but the
        # substitution runs on the coefficients as they are
        coeffs = [Multicomplex(2, (-1, 0.0, 0, 0)), Multicomplex.scalar(2, 0), Multicomplex.scalar(2, 1)]
        got = mc_solve(coeffs)
        assert all(r.is_exact() for r in got.roots)
        assert repr(got) == repr(element_path_root_set(coeffs))

    # Component roots from a pool of four, so that equal roots, and equal
    # float pairs across combinations, are common.
    @settings(deadline=None, max_examples=40)
    @given(
        order=st.sampled_from([2, 3]),
        kind=st.sampled_from(["double", "irrational", "float"]),
        data=st.data(),
    )
    def test_same_repr_on_ties(self, order, kind, data):
        pool = st.sampled_from([(0, 0), (1, 0), (-1, 2), (1, 2)])
        one = RationalComplex(Fraction(1))
        comps = []
        for k in range(1 << (order - 1)):
            roots = data.draw(st.lists(pool, min_size=1, max_size=2))
            if k == 0 and kind == "double":
                roots = [roots[0], *roots]
            cofactor = [-2 * one, 0 * one, one] if k == 0 and kind == "irrational" else [one]
            roots = [RationalComplex(Fraction(a, 2), Fraction(b, 2)) for a, b in roots]
            comps.append(times_roots(cofactor, roots))
        top = max(len(c) for c in comps)
        comps = [c + [0 * one] * (top - len(c)) for c in comps]
        if kind == "float":
            comps = [[complex(z) for z in c] for c in comps]
        coeffs = [Multicomplex.unsplit([c[j] for c in comps], order) for j in range(top)]
        assert repr(mc_solve(coeffs)) == repr(element_path_root_set(coeffs))
        if order == 2:
            bc = [Bicomplex(*c.coeffs) for c in coeffs]
            assert repr(solve(BicomplexPoly(tuple(bc)))) == repr(element_path_root_set(bc))


class TestRootOrder:
    def test_roots_sharing_a_component_follow_the_next_one(self):
        # float roots sort by the component roots they combine, as exact
        # roots do, not by the split of their recombined coefficients, whose
        # last bits depend on the partner root
        def nearest(z, roots):
            w = min(roots, key=lambda w: abs(w - z))
            return w.real, w.imag

        rng = random.Random(5)
        for _ in range(200):
            coeffs = [Bicomplex(*[rng.uniform(-1, 1) for _ in range(4)]) for _ in range(3)]
            p = BicomplexPoly((*coeffs, ONE))
            component_roots = [complex_roots(c) for c in split_polynomial(p)]
            keys = [sum(map(nearest, r.decompose(), component_roots), ()) for r in solve(p).roots]
            assert keys == sorted(keys)


class TestRootCap:
    def test_order_five_degree_three_raises_at_once(self):
        coeffs = [Multicomplex.scalar(5, c) for c in (-1, 0, 0, 1)]
        start = time.perf_counter()
        with pytest.raises(TooManyRoots, match=f"43046721 roots exceed the cap of {MAX_ROOTS}"):
            mc_solve(coeffs)
        assert time.perf_counter() - start < 1.0

    def test_cap_counts_the_component_degrees(self):
        # order 4 at degree 4 has exactly MAX_ROOTS roots and is not refused
        # by the cap; one more degree on every component is
        assert 4 ** 8 == MAX_ROOTS
        coeffs = [Multicomplex.scalar(4, c) for c in (1, 0, 0, 0, 0, 1)]
        with pytest.raises(TooManyRoots, match="390625 roots"):
            mc_solve(coeffs)


def perturb_root(monkeypatch, move, at=2):
    """Patch the recombination so that the ``at``-th root it builds, as
    (values, d), is replaced by ``move(values, d)``; returns the roots the
    substitution check is given, as coefficient tuples of exact values or
    floats."""
    original = polysolve._recombine
    checked = []

    def perturbed(*args):
        values, d = original(*args)
        if len(checked) + 1 == at:
            values, d = move(values, d)
        checked.append(list(values) if d is None else [Fraction(v, d) for v in values])
        return values, d

    monkeypatch.setattr(polysolve, "_recombine", perturbed)
    return checked


def shifted_by(delta):
    """A move for :func:`perturb_root`: the root plus ``delta``, a
    coefficient tuple, exact roots over their new common denominator."""
    def move(values, d):
        root = list(values) if d is None else [Fraction(v, d) for v in values]
        moved = [x + e for x, e in zip(root, delta)]
        if d is None:
            return tuple(moved), None
        d, ints = common_denominator(moved)
        return ints, d

    return move


def first_int_plus_one(values, d):
    """A move for :func:`perturb_root`: the first int one more, over the
    solve's own denominator d."""
    return [values[0] + 1, *values[1:]], d


def halved(values, d):
    """A move for :func:`perturb_root`: the same ints over twice d, so every
    component of the moved root has the ints of a correct one."""
    return values, 2 * d


def components_swapped(values, d):
    """A move for :func:`perturb_root` on a bicomplex root: the root with its
    two split components swapped, over the same d, so each component of the
    moved root has the ints of a correct root of the other component."""
    z1, z2 = Bicomplex(*[Fraction(v, d) for v in values]).decompose()
    swapped = [c * d for c in Bicomplex.recompose(SplitPair(z2, z1)).components()]
    assert all(c.denominator == 1 for c in swapped)
    return [int(c) for c in swapped], d


class TestSubstitutionCatchesBadRecombination:
    """A root recombined wrongly fails the substitution check, whether it
    was recombined on the ints of exact roots (the polynomials with exact
    coefficients) or on floats.  The exact check keeps the value of each
    component it has seen; a wrong root must miss those values, also when
    it keeps the solve's denominator and when every value is already kept."""

    @staticmethod
    def check_bicomplex(monkeypatch, one, scale=1, move=None):
        move = move or shifted_by(Bicomplex(0, 0, 0, Fraction(1, 1000)).components())
        checked = perturb_root(monkeypatch, move)
        coeffs = (Bicomplex(-one * scale), ZERO, Bicomplex(scale))
        with pytest.raises(NoConvergence) as excinfo:
            solve(BicomplexPoly(coeffs))
        residual = basis_norm(element_horner(coeffs, Bicomplex(*checked[1])))
        assert f"residual {residual:.3e}" in str(excinfo.value)
        return residual

    @staticmethod
    def check_multicomplex(monkeypatch, order, one, scale=1, move=None, at=2):
        move = move or shifted_by(Multicomplex.scalar(order, Fraction(1, 1000)).coeffs)
        checked = perturb_root(monkeypatch, move, at)
        coeffs = [Multicomplex.scalar(order, -one * scale), Multicomplex.scalar(order, 0), Multicomplex.scalar(order, scale)]
        with pytest.raises(NoConvergence) as excinfo:
            mc_solve(coeffs)
        residual = basis_norm(element_horner(coeffs, Multicomplex(order, checked[at - 1])))
        assert f"residual {residual:.3e}" in str(excinfo.value)
        return residual

    def test_bicomplex(self, monkeypatch):
        self.check_bicomplex(monkeypatch, 1)

    def test_bicomplex_float(self, monkeypatch):
        self.check_bicomplex(monkeypatch, 1.0)

    @pytest.mark.parametrize("order", [2, 3])
    def test_multicomplex(self, monkeypatch, order):
        self.check_multicomplex(monkeypatch, order, 1)

    @pytest.mark.parametrize("order", [2, 3])
    def test_multicomplex_float(self, monkeypatch, order):
        self.check_multicomplex(monkeypatch, order, 1.0)

    @pytest.mark.parametrize("one", [1, 1.0])
    @pytest.mark.parametrize("order", [None, 3])
    def test_coefficient_scale_1e200(self, monkeypatch, order, one):
        # the squares of 1e200 overflow; the tolerance must stay finite, or
        # it accepts a root off by 1/1000 with a residual near 2e197
        if order is None:
            residual = self.check_bicomplex(monkeypatch, one, one * 10**200)
        else:
            residual = self.check_multicomplex(monkeypatch, order, one, one * 10**200)
        assert 1e197 < residual < math.inf

    def test_exact_root_over_the_solves_denominator(self, monkeypatch):
        self.check_bicomplex(monkeypatch, 1, move=first_int_plus_one)
        monkeypatch.undo()
        self.check_multicomplex(monkeypatch, 3, 1, move=first_int_plus_one)

    @pytest.mark.parametrize("move", [shifted_by(Multicomplex.scalar(3, Fraction(1, 1000)).coeffs), halved], ids=["shifted", "halved"])
    def test_last_exact_root_after_every_component_value_is_kept(self, monkeypatch, move):
        # z**2 = 1 at order 3: 16 roots over the component values +-1
        self.check_multicomplex(monkeypatch, 3, 1, move=move, at=16)

    def test_the_failure_reported_is_the_first_of_the_unsorted_product(self, monkeypatch):
        # (z - 3)(z**2 - 2) in both components: each lists its exact root 3
        # first and sorts it last, after -sqrt(2) and sqrt(2)
        delta = Bicomplex(0, 0, 0, Fraction(1, 1000))
        move = shifted_by(delta.components())
        original = polysolve._recombine
        monkeypatch.setattr(polysolve, "_recombine", lambda *args: move(*original(*args)))
        coeffs = tuple(Bicomplex(c) for c in (6, -2, -3, 1))
        with pytest.raises(NoConvergence) as excinfo:
            solve(BicomplexPoly(coeffs))
        residual = basis_norm(element_horner(coeffs, Bicomplex(3) + delta))
        assert f"residual {residual:.3e} >" in str(excinfo.value)

    def test_exact_root_with_its_components_swapped(self, monkeypatch):
        # components (z - 1)(z - 3) and (z - 2)(z - 4): the last root, (3, 4),
        # becomes (4, 3), whose component values are kept, each for the
        # other component
        checked = perturb_root(monkeypatch, components_swapped, at=4)
        pairs = [(3, 8), (-4, -6), (1, 1)]
        coeffs = tuple(Bicomplex.recompose(SplitPair(RationalComplex(Fraction(a)), RationalComplex(Fraction(b)))) for a, b in pairs)
        with pytest.raises(NoConvergence) as excinfo:
            solve(BicomplexPoly(coeffs))
        residual = basis_norm(element_horner(coeffs, Bicomplex(*checked[3])))
        assert f"residual {residual:.3e}" in str(excinfo.value)
