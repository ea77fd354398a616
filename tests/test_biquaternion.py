import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercomplex.bicomplex import Bicomplex
from hypercomplex.biquaternion import (
    I,
    J,
    K,
    OMEGA,
    ONE,
    ZERO,
    Biquaternion,
    DegenerateSpectrum,
    NotComplanar,
    ZeroInput,
    solve_quadratic,
)
from hypercomplex.scalars import RationalComplex

from oracles import hamilton_mul, newton_quadratic_solutions

SQ3 = math.sqrt(3.0)


def rc(re, im=0):
    return RationalComplex(Fraction(re), Fraction(im))


@st.composite
def biquaternions(draw):
    parts = [
        rc(draw(st.integers(-4, 4)), draw(st.integers(-4, 4))) for _ in range(4)
    ]
    return Biquaternion(*parts)


class TestAlgebra:
    def test_quaternion_table(self):
        assert I * J == K
        assert J * I == -K
        assert J * K == I
        assert K * I == J
        assert I * I == J * J == K * K == -ONE

    def test_omega_is_central_and_squares_to_minus_one(self):
        assert OMEGA * OMEGA == -ONE
        for u in (I, J, K):
            assert OMEGA * u == u * OMEGA

    @given(biquaternions())
    def test_omega_commutes_with_everything(self, a):
        assert OMEGA * a == a * OMEGA

    def test_nullifier_product_vanishes(self):
        assert (K + OMEGA) * (K - OMEGA) == ZERO
        assert bool(K + OMEGA) and bool(K - OMEGA)

    @given(biquaternions(), biquaternions())
    def test_hamilton_product_oracle(self, a, b):
        got = (a * b).components()
        want = hamilton_mul(a.components(), b.components())
        assert got == tuple(want)

    def test_hamilton_form_round_trip(self):
        a = Biquaternion(rc(1, 2), rc(-3, 4), rc(0, -5), rc(7, 0))
        real, imag = a.real_part(), a.imag_part()
        rebuilt = Biquaternion(
            *(RationalComplex(Fraction(r), Fraction(w)) for r, w in zip(real, imag))
        )
        assert rebuilt == a


class TestMatrixImage:
    def test_identity_maps_to_identity(self):
        assert ONE.to_matrix() == ((rc(1), rc(0)), (rc(0), rc(1)))

    def test_rho_i_rho_j_is_rho_k(self):
        def matmul(m1, m2):
            return tuple(
                tuple(sum(m1[r][t] * m2[t][c] for t in range(2)) for c in range(2))
                for r in range(2)
            )

        assert matmul(I.to_matrix(), J.to_matrix()) == K.to_matrix()

    def test_rho_multiplicative_on_all_basis_pairs(self):
        def matmul(m1, m2):
            return tuple(
                tuple(sum(m1[r][t] * m2[t][c] for t in range(2)) for c in range(2))
                for r in range(2)
            )

        basis = (ONE, I, J, K)
        for x in basis:
            for y in basis:
                assert (x * y).to_matrix() == matmul(x.to_matrix(), y.to_matrix())

    @given(biquaternions())
    def test_round_trip(self, a):
        assert Biquaternion.from_matrix(a.to_matrix()) == a

    @given(biquaternions(), biquaternions())
    @settings(max_examples=50)
    def test_rho_multiplicative_on_random_elements(self, a, b):
        def matmul(m1, m2):
            return tuple(
                tuple(sum(m1[r][t] * m2[t][c] for t in range(2)) for c in range(2))
                for r in range(2)
            )

        assert (a * b).to_matrix() == matmul(a.to_matrix(), b.to_matrix())


class TestNullifier:
    def test_k_plus_omega(self):
        assert (K + OMEGA).is_nullifier()

    def test_one_plus_i_is_regular_with_an_inverse(self):
        a = ONE + I
        assert not a.is_nullifier()
        # exhibit the inverse through the matrix image: rho(a) = diag(1+i, 1-i)
        inv = Biquaternion.from_matrix(
            ((1 / (1 + 1j), 0j), (0j, 1 / (1 - 1j)))
        )
        assert (a * inv - ONE).norm() <= 1e-12

    @given(st.tuples(*(st.integers(-5, 5) for _ in range(4))))
    def test_nonzero_real_quaternions_are_regular(self, parts):
        if not any(parts):
            return
        q = Biquaternion(*(rc(p) for p in parts))
        assert not q.is_nullifier()
        # det of the matrix image is the squared Euclidean norm, positive
        assert q.det() == rc(sum(p * p for p in parts))

    def test_zero_input_rejected(self):
        with pytest.raises(ZeroInput):
            ZERO.is_nullifier()

    @given(biquaternions())
    @settings(max_examples=100)
    def test_nullifier_iff_nontrivial_kernel(self, a):
        if a.is_zero():
            return
        m = np.array(
            [[complex(v) for v in row] for row in a.to_matrix()], dtype=complex
        )
        singular = min(np.linalg.svd(m, compute_uv=False)) <= 1e-9
        assert a.is_nullifier() == singular
        if singular:
            # build an annihilating partner from the kernel
            _, _, vh = np.linalg.svd(m)
            kernel = vh[-1].conj()
            x = Biquaternion.from_matrix(
                ((kernel[0], 0j), (kernel[1], 0j))
            )
            assert bool(x)
            assert (a * x).norm() <= 1e-9


class TestHugeFloatComponents:
    """Finite components whose squares overflow: the norm falls back to a
    scaled hypot, and the nullifier and real-quaternion tests to the element
    scaled by a power of two; every finite result of the plain formulas
    keeps its bits."""

    def test_huge_real_scalar_is_regular(self):
        q = Biquaternion(1e200 + 0j, 0j, 0j, 0j)
        assert q.norm() == 1e200
        assert not q.is_nullifier()
        assert q.is_real_quaternion()

    def test_huge_nullifier_whose_det_is_nan(self):
        q = Biquaternion(1e200, 1e200j, 0, 0)
        assert math.isnan(complex(q.det()).real)  # inf - inf
        assert q.is_nullifier()
        assert not q.is_real_quaternion()
        assert q.norm() == math.hypot(1e200, 1e200)

    def test_overflowing_norm_keeps_the_real_quaternion_test(self):
        q = Biquaternion(1e308 + 1e308j, 1e308, 1e308, 1e308)
        assert q.norm() == math.inf
        assert not q.is_real_quaternion()
        assert Biquaternion(1e308, 1e308, 1e308, 1e308).is_real_quaternion()
        assert Biquaternion(1e308 + 1e290j, 1e308, 1e308, 1e308).is_real_quaternion()

    def test_real_quaternion_test_past_the_float_range_decides_as_a_finite_multiple(self):
        rng = np.random.default_rng(19)
        for j in range(60):
            re_parts = rng.uniform(1.5, 1.9, 4) * rng.choice([-1.0, 1.0], 4)
            w_parts = rng.uniform(-1, 1, 4)
            if j % 2:  # w-parts near the tolerance of 1e-9 * norm
                w_parts *= 10.0 ** rng.uniform(-11, -8)
            q = Biquaternion(*(complex(x, w) for x, w in zip(re_parts, w_parts)))
            finite = Biquaternion(*(c * 2.0**500 for c in q.components()))
            huge = Biquaternion(*(c * 2.0**1023 for c in q.components()))
            assert math.isfinite(finite.norm())
            assert huge.norm() == math.inf
            assert huge.is_real_quaternion() == finite.is_real_quaternion()

    def test_huge_elements_decide_as_their_large_finite_multiples(self):
        rng = np.random.default_rng(17)
        for j in range(60):
            parts = rng.uniform(-1, 1, 8)
            q = Biquaternion(*(complex(parts[2 * m], parts[2 * m + 1]) for m in range(4)))
            if j % 2:  # move it onto a nullifier, up to a residue near the tolerance
                c0, c1, c2, c3 = q.components()
                gap = 10.0 ** rng.uniform(-15, -9)
                q = Biquaternion(1j * (c1 * c1 + c2 * c2 + c3 * c3 + gap) ** 0.5, c1, c2, c3)
            finite = Biquaternion(*(c * 2.0**500 for c in q.components()))
            huge = Biquaternion(*(c * 2.0**600 for c in q.components()))
            assert math.isfinite(abs(complex(finite.det())))
            assert not math.isfinite(abs(complex(huge.det())))
            assert huge.is_nullifier() == finite.is_nullifier()

    def test_ordinary_norms_keep_the_plain_sum(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            parts = rng.uniform(-1e3, 1e3, 8) * 10.0 ** rng.integers(-100, 100)
            q = Biquaternion(*(complex(parts[2 * m], parts[2 * m + 1]) for m in range(4)))
            assert q.norm() == math.sqrt(sum(abs(complex(c)) ** 2 for c in q.components()))


class TestComplanar:
    def test_omega_maps_to_h(self):
        assert OMEGA.complanar_to_bicomplex() == Bicomplex(0, 0, 1, 0)

    def test_basis_mapping(self):
        assert ONE.complanar_to_bicomplex() == Bicomplex(1, 0, 0, 0)
        assert I.complanar_to_bicomplex() == Bicomplex(0, 1, 0, 0)
        assert (OMEGA * I).complanar_to_bicomplex() == Bicomplex(0, 0, 0, 1)

    def test_not_complanar(self):
        with pytest.raises(NotComplanar):
            (I + J).complanar_to_bicomplex()
        with pytest.raises(NotComplanar):
            K.complanar_to_bicomplex()

    @given(
        st.tuples(*(st.integers(-4, 4) for _ in range(4))),
        st.tuples(*(st.integers(-4, 4) for _ in range(4))),
    )
    @settings(max_examples=100)
    def test_multiplicative_and_additive_on_complanar_pairs(self, pa, pb):
        a = Biquaternion(rc(pa[0], pa[1]), rc(pa[2], pa[3]), 0, 0)
        b = Biquaternion(rc(pb[0], pb[1]), rc(pb[2], pb[3]), 0, 0)
        fa, fb = a.complanar_to_bicomplex(), b.complanar_to_bicomplex()
        assert (a * b).complanar_to_bicomplex() == fa * fb
        assert (a + b).complanar_to_bicomplex() == fa + fb

    def test_surjective_onto_the_bicomplex_basis(self):
        for target in (
            Bicomplex(1, 0, 0, 0),
            Bicomplex(0, 1, 0, 0),
            Bicomplex(0, 0, 1, 0),
            Bicomplex(0, 0, 0, 1),
        ):
            preimage = Biquaternion.from_bicomplex(target)
            assert preimage.complanar_to_bicomplex() == target


class TestSolveQuadratic:
    def test_six_solutions_two_real(self):
        sols = solve_quadratic(I, J)
        assert len(sols) == 6
        tags = [s.is_real_quaternion() for s in sols]
        assert sum(tags) == 2
        tol = 1e-9 * (1 + I.norm() + J.norm())
        for s in sols:
            assert (s * s - s * I - J).norm() <= tol

    def test_solutions_match_the_closed_forms(self):
        # worked out by elimination: the real pair is (+-1 + i +- j - k)/2
        # with matched signs; the w = 0 family is i(1 +- sqrt(-3))/2 - k; the
        # remaining pair is +-sqrt(-3)/2 + i/2 -+ sqrt(-3)j/2 + k/2
        expected = [
            (-0.5, 0.5, -0.5, -0.5),
            (0.5, 0.5, 0.5, -0.5),
            (0j, 0.5 + SQ3 / 2 * 1j, 0j, -1.0),
            (0j, 0.5 - SQ3 / 2 * 1j, 0j, -1.0),
            (SQ3 / 2 * 1j, 0.5, -SQ3 / 2 * 1j, 0.5),
            (-SQ3 / 2 * 1j, 0.5, SQ3 / 2 * 1j, 0.5),
        ]
        sols = solve_quadratic(I, J)
        for want in expected:
            dist = min(
                max(
                    abs(complex(sc) - complex(wc))
                    for sc, wc in zip(s.components(), want)
                )
                for s in sols
            )
            assert dist <= 1e-9

    def test_printed_historical_roots_by_substitution(self):
        # the 1853 root list as usually transcribed; the first family is a
        # typographical garble -- q = (i-k)/2 +- (i+j)/2 fails substitution,
        # while (i-k)/2 +- (1+j)/2 is what actually solves the equation
        def residual(q):
            qq = hamilton_mul(q, q)
            qb = hamilton_mul(q, (0, 1, 0, 0))
            return max(
                abs(qq[m] - qb[m] - (0, 0, 1, 0)[m]) for m in range(4)
            )

        garbled = [
            (0, 1.0, 0.5, -0.5),   # (i-k)/2 + (i+j)/2
            (0, 0.0, -0.5, -0.5),  # (i-k)/2 - (i+j)/2
        ]
        assert all(residual(q) > 1e-3 for q in garbled)

        corrected = [
            (0.5, 0.5, 0.5, -0.5),    # (i-k)/2 + (1+j)/2
            (-0.5, 0.5, -0.5, -0.5),  # (i-k)/2 - (1+j)/2
        ]
        second_family = [
            (0, 0.5 * (1 - 1j * SQ3), 0, -1.0),  # i(1 -+ sqrt(-3))/2 - k
            (0, 0.5 * (1 + 1j * SQ3), 0, -1.0),
        ]
        third_family = [
            (0.5j * SQ3, 0.5, -0.5j * SQ3, 0.5),  # (i+k)/2 +- (1-j)sqrt(-3)/2
            (-0.5j * SQ3, 0.5, 0.5j * SQ3, 0.5),
        ]
        for q in corrected + second_family + third_family:
            assert residual(q) <= 1e-12

    def test_newton_oracle_agrees(self):
        sols = solve_quadratic(I, J)
        clusters = newton_quadratic_solutions(
            (0, 1, 0, 0), (0, 0, 1, 0), n_starts=80, seed=7
        )
        assert len(clusters) == 6
        for cluster in clusters:
            dist = min(
                max(
                    abs(complex(sc) - cc)
                    for sc, cc in zip(s.components(), cluster)
                )
                for s in sols
            )
            assert dist <= 1e-6

    def test_continuum_cases_raise_degenerate_spectrum(self):
        with pytest.raises(DegenerateSpectrum):
            solve_quadratic(ZERO, -ONE)  # q^2 = -1: a sphere of roots
        with pytest.raises(DegenerateSpectrum):
            solve_quadratic(ZERO, ZERO)  # q^2 = 0: nilpotent nullifiers

    def test_known_square_roots_of_a_complanar_element(self):
        # q^2 = 3 + 4i has four isolated roots: the quaternion pair +-(2 + i)
        # and the biquaternion pair +-w(-1 + 2i), one per sign choice on the
        # two diagonal blocks of the matrix image
        c = Biquaternion(rc(3), rc(4), 0, 0)
        sols = solve_quadratic(ZERO, c)
        assert len(sols) == 4
        want = {
            (2 + 0j, 1 + 0j),
            (-2 + 0j, -1 + 0j),
            (-1j, 2j),
            (1j, -2j),
        }
        got = {
            (
                complex(round(complex(s.c0).real, 9), round(complex(s.c0).imag, 9)),
                complex(round(complex(s.c1).real, 9), round(complex(s.c1).imag, 9)),
            )
            for s in sols
        }
        assert got == want
        for s in sols:
            assert (s * s - c).norm() <= 1e-9


class TestText:
    def test_parse_examples(self):
        assert Biquaternion.parse("(0,1) + (1,0)*k") == OMEGA + K
        assert Biquaternion.parse("1 + 2*i") == ONE + I + I
        assert Biquaternion.parse("(1/2,-3)*j") == Biquaternion(0, 0, rc(Fraction(1, 2), -3), 0)

    @given(biquaternions())
    def test_str_round_trip(self, a):
        assert Biquaternion.parse(str(a)) == a

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            Biquaternion.parse("(1,2")
        with pytest.raises(ValueError):
            Biquaternion.parse("1 + q")
