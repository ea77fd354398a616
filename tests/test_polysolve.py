import random
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
from hypercomplex.multicomplex import Multicomplex
from hypercomplex.polysolve import (
    BicomplexPoly,
    NoConvergence,
    RootSet,
    ZeroPolynomial,
    complex_roots,
    mc_solve,
    solve,
    split_polynomial,
)
from hypercomplex.polysolve import (
    _SNAP_DENOMINATORS,
    _component_roots,
    _snap_candidate,
    _substitution,
)
from hypercomplex.ratpoly import best_rationals, exact_roots, rational_roots
from hypercomplex.ratpoly import gaussian_integers as _gaussian_integers
from hypercomplex.ratpoly import vanishes_at as _vanishes_at
from hypercomplex.scalars import InvariantError, RationalComplex, scalar_norm

from strategies import bicomplexes, multicomplexes, small_fractions, small_ints


def expand_from_roots(roots):
    """Ascending coefficients of prod (z - r) -- the planting oracle."""
    coeffs = [1 + 0j]
    for r in roots:
        coeffs = [0j] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= r * coeffs[i + 1]
    return coeffs


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

    @pytest.mark.parametrize(
        "coeffs",
        [[-1e30] + [0] * 9 + [1], [-1e62, 0, 0, 0, 0, 1]],
        ids=["z^10-1e30", "z^5-1e62"],
    )
    def test_wide_coefficient_spread(self, coeffs):
        # Aberth's start circle overflows to inf here; the companion matrix
        # still finds every root of z**n = c
        n, c = len(coeffs) - 1, -coeffs[0]
        roots = complex_roots(coeffs)
        assert len(roots) == n
        assert all(abs(abs(r) / c ** (1 / n) - 1) <= 1e-12 for r in roots)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            complex_roots([1])
        with pytest.raises(ValueError):
            complex_roots([1, 0])


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
    def test_non_root_raises(self):
        # 1 is no root of z**2 + 1; a snap that returns it anyway
        coeffs = [RationalComplex(Fraction(c)) for c in (1, 0, 1)]
        with pytest.raises(InvariantError, match="non-root"):
            exact_roots(coeffs, complex_roots, lambda r, scaled: RationalComplex(Fraction(1)))


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
    """The (numerator, denominator) ints of both parts, as the integer
    check takes them."""
    return x.re.as_integer_ratio(), x.im.as_integer_ratio()


class TestGaussianIntegerVanishing:
    @settings(deadline=None)
    @given(
        st.lists(gaussian_rationals, min_size=1, max_size=4),
        st.lists(gaussian_rationals, min_size=1, max_size=3).filter(lambda cs: cs[-1]),
        st.floats(min_value=-1e-3, max_value=1e-3),
    )
    def test_agrees_with_rational_horner(self, roots, cofactor, noise):
        coeffs = times_roots(cofactor, roots)
        _, scaled = _gaussian_integers(coeffs)
        assert all(_vanishes_at(scaled, *integer_pairs(r)) for r in roots)
        points = [RationalComplex(Fraction(0))]
        for r in roots:
            z = complex(r) + complex(noise, -noise)
            # the near misses the snap tries, in its order
            candidates = [
                RationalComplex(
                    Fraction(z.real).limit_denominator(d),
                    Fraction(z.imag).limit_denominator(d),
                )
                for d in _SNAP_DENOMINATORS
            ]
            points += [r] + candidates
            hits = [x for x in candidates if not rational_horner(coeffs, x)]
            assert _snap_candidate(z, scaled) == (hits[0] if hits else None)
        for x in points:
            assert _vanishes_at(scaled, *integer_pairs(x)) == (not rational_horner(coeffs, x))


# floats at the ends of the range, and floats near the rungs' own fractions,
# where the ladder's semiconvergents and its tie rule decide
ladder_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308]),
    st.builds(
        lambda p, q, noise: p / q + noise,
        st.integers(-10**6, 10**6),
        st.sampled_from(_SNAP_DENOMINATORS),
        st.sampled_from([0.0, 1e-15, -1e-12, 3e-9, -2e-7, 1e-4]),
    ),
)


class TestSnapLadder:
    @settings(deadline=None)
    @given(ladder_floats)
    def test_matches_limit_denominator(self, x):
        expected = [Fraction(x).limit_denominator(d) for d in _SNAP_DENOMINATORS]
        assert best_rationals(x, _SNAP_DENOMINATORS) == [
            (f.numerator, f.denominator) for f in expected
        ]

    def test_snaps_call_no_limit_denominator(self, monkeypatch):
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
        # the surd snap: (x - 1/3)(x**2 - 2)
        assert rational_roots((Fraction(2, 3), -2, Fraction(-1, 3), 1))[0] == [Fraction(1, 3)]


def test_complex_roots_runs_once_per_deflated_polynomial(monkeypatch):
    calls = []
    original = polysolve.complex_roots
    monkeypatch.setattr(polysolve, "complex_roots", lambda cs: calls.append(len(cs)) or original(cs))
    # (z - 1)(z**2 - 2): 1 snaps, the irrational pair does not
    coeffs = [RationalComplex(Fraction(c)) for c in (2, -2, -1, 1)]
    roots = _component_roots(coeffs)
    assert roots[0] == RationalComplex(Fraction(1))
    assert calls == [4, 3]


class TestIntegerSubstitution:
    """Exact roots are substituted on integers; a nonzero value is divided
    back so the residual is the element Horner's, bit for bit."""

    @pytest.mark.parametrize(
        "elements",
        [bicomplexes(exact_scalars), multicomplexes(2, exact_scalars), multicomplexes(3, exact_scalars)],
        ids=["bicomplex", "order2", "order3"],
    )
    @settings(deadline=None)
    @given(data=st.data())
    def test_matches_element_horner(self, elements, data):
        coeffs = data.draw(st.lists(elements, min_size=2, max_size=5))
        x = data.draw(elements)
        got = _substitution(coeffs)(x)
        assert repr(got) == repr(basis_norm(element_horner(coeffs, x)))

    def test_exact_root_gives_exact_zero(self):
        one, zero = Multicomplex.scalar(3, 1), Multicomplex.scalar(3, 0)
        i1 = Multicomplex.unit(3, 0)
        assert _substitution([one, zero, one])(i1) == 0.0


def perturb_second_root(monkeypatch, cls, name, delta):
    """Patch the recombination ``cls.name`` so the second root it builds is
    off by ``delta``; returns the roots it built."""
    original = getattr(cls, name)
    built = []

    def perturbed(*args):
        root = original(*args)
        built.append(root)
        return root + delta if len(built) == 2 else root

    monkeypatch.setattr(cls, name, staticmethod(perturbed))
    return built


class TestSubstitutionCatchesBadRecombination:
    def test_bicomplex(self, monkeypatch):
        delta = Bicomplex(0, 0, 0, Fraction(1, 1000))
        built = perturb_second_root(monkeypatch, Bicomplex, "recompose", delta)
        coeffs = (Bicomplex(-1), ZERO, ONE)
        with pytest.raises(NoConvergence) as excinfo:
            solve(BicomplexPoly(coeffs))
        residual = basis_norm(element_horner(coeffs, built[1] + delta))
        assert f"residual {residual:.3e}" in str(excinfo.value)

    @pytest.mark.parametrize("order", [2, 3])
    def test_multicomplex(self, monkeypatch, order):
        delta = Multicomplex.scalar(order, Fraction(1, 1000))
        built = perturb_second_root(monkeypatch, Multicomplex, "unsplit", delta)
        coeffs = [Multicomplex.scalar(order, -1), Multicomplex.scalar(order, 0), Multicomplex.scalar(order, 1)]
        with pytest.raises(NoConvergence) as excinfo:
            mc_solve(coeffs)
        residual = basis_norm(element_horner(coeffs, built[1] + delta))
        assert f"residual {residual:.3e}" in str(excinfo.value)
