from fractions import Fraction

import pytest
from hypothesis import given

from hypercomplex.bicomplex import (
    G,
    G_PRIME,
    H,
    I,
    K,
    K1,
    K2,
    ONE,
    ZERO,
    Bicomplex,
    IdealTag,
    NotInvertible,
    SplitPair,
)
from hypercomplex.scalars import RationalComplex

from oracles import split_oracle
from strategies import bicomplexes


def as_pair(z):
    return (Fraction(z.real), Fraction(z.imag))


class TestBasisTable:
    def test_defining_relations(self):
        assert I * I == -ONE
        assert H * H == -ONE
        assert K * K == ONE
        assert I * H == K
        assert H * I == K

    def test_basis_sum(self):
        assert Bicomplex(1, 0, 0, 0) + Bicomplex(0, 1, 0, 0) == Bicomplex(1, 1, 0, 0)

    def test_cockle_zero_divisor_product(self):
        assert (ONE - K) * (ONE + K) == ZERO

    @given(bicomplexes())
    def test_additive_identity(self, a):
        assert a + ZERO == a

    @given(bicomplexes(), bicomplexes(), bicomplexes())
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    def test_ring_axioms_on_500_random_rational_triples(self):
        import random

        rng = random.Random(20260809)

        def rand_element():
            return Bicomplex(
                *(Fraction(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(4))
            )

        for _ in range(500):
            a, b, c = rand_element(), rand_element(), rand_element()
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


class TestDecompose:
    def test_real_scalar_is_diagonal(self):
        assert Bicomplex(3, 0, 0, 0).decompose() == SplitPair(
            RationalComplex(Fraction(3)), RationalComplex(Fraction(3))
        )

    def test_unit_i_splits_to_conjugate_imaginaries(self):
        z1, z2 = I.decompose()
        assert as_pair(z1) == (0, 1)
        assert as_pair(z2) == (0, -1)

    def test_idempotent_splits_to_projector_eigenvalues(self):
        z1, z2 = G.decompose()
        assert as_pair(z1) == (1, 0)
        assert as_pair(z2) == (0, 0)

    @given(bicomplexes())
    def test_matches_substitution_oracle(self, a):
        z1, z2 = a.decompose()
        o1, o2 = split_oracle(a.components())
        assert as_pair(z1) == o1
        assert as_pair(z2) == o2

    @given(bicomplexes(), bicomplexes())
    def test_additive_and_multiplicative(self, a, b):
        sa, sb = a.decompose(), b.decompose()
        assert (a + b).decompose() == SplitPair(sa.z1 + sb.z1, sa.z2 + sb.z2)
        assert (a * b).decompose() == SplitPair(sa.z1 * sb.z1, sa.z2 * sb.z2)

    @given(bicomplexes())
    def test_round_trip(self, a):
        assert Bicomplex.recompose(a.decompose()) == a

    def test_recompose_basis_pairs(self):
        one = RationalComplex(Fraction(1))
        zero = RationalComplex(Fraction(0))
        assert Bicomplex.recompose(SplitPair(one, one)) == ONE
        assert Bicomplex.recompose(SplitPair(one, zero)) == G
        assert Bicomplex.recompose(SplitPair(zero, one)) == G_PRIME


class TestIdempotents:
    def test_projector_algebra(self):
        assert G * G == G
        assert G_PRIME * G_PRIME == G_PRIME
        assert G * G_PRIME == ZERO
        assert G + G_PRIME == ONE

    def test_nullific_units_behave_like_one_and_i(self):
        # k1 = h*g and k2 = -h*g' pair with g, g' the way i pairs with 1
        assert K1 == H * G
        assert K2 == -(H * G_PRIME)
        assert K1 * K1 == -G
        assert K1 * G == K1
        assert K2 * K2 == -G_PRIME
        assert K2 * G_PRIME == K2


class TestIdeal:
    @pytest.mark.parametrize(
        "element,tag",
        [
            (ZERO, IdealTag.ZERO),
            (ONE, IdealTag.NONE),
            (G, IdealTag.FIRST_SET),
            (G_PRIME, IdealTag.SECOND_SET),
            (H + I, IdealTag.FIRST_SET),
            (-H + I, IdealTag.SECOND_SET),
            (ONE + I, IdealTag.NONE),
        ],
    )
    def test_tags(self, element, tag):
        assert element.ideal() == tag

    @given(bicomplexes())
    def test_tag_matches_substitution_oracle(self, a):
        o1, o2 = split_oracle(a.components())
        tag = a.ideal()
        if a.is_zero():
            assert tag == IdealTag.ZERO
        elif o2 == (0, 0):
            assert tag == IdealTag.FIRST_SET
        elif o1 == (0, 0):
            assert tag == IdealTag.SECOND_SET
        else:
            assert tag == IdealTag.NONE

    def test_float_backend_tolerance(self):
        nearly_g = Bicomplex(0.5, 1e-16, 0.0, -0.5)
        assert nearly_g.ideal() == IdealTag.FIRST_SET
        assert Bicomplex(0.5, 0.1, 0.0, -0.5).ideal() == IdealTag.NONE

    def test_huge_floats_keep_a_finite_tolerance(self):
        # 1e200 squared overflows; the tolerance must not become infinite
        big = Bicomplex(1e200, 0.0, 0.0, 0.0)
        assert not big.is_zero_divisor()
        assert big.ideal() == IdealTag.NONE
        assert big.inverse() == Bicomplex(1e-200, 0.0, 0.0, 0.0)
        assert Bicomplex(1e200, 0.0, 0.0, -1e200).ideal() == IdealTag.FIRST_SET

    def test_zero_product_needs_opposite_sets(self):
        # exhaustive over a small grid: a*b = 0 with a, b nonzero iff the
        # ideal tags are {FirstSet, SecondSet}
        grid = [
            Bicomplex(w, x, y, z)
            for w in range(-1, 2)
            for x in range(-1, 2)
            for y in range(-1, 2)
            for z in range(-1, 2)
        ]
        nonzero = [a for a in grid if not a.is_zero()]
        for a in nonzero:
            for b in nonzero:
                zero_product = (a * b).is_zero()
                opposite = {a.ideal(), b.ideal()} == {
                    IdealTag.FIRST_SET,
                    IdealTag.SECOND_SET,
                }
                assert zero_product == opposite


class TestNorm:
    def test_unit_norms(self):
        assert ONE.norm_sq() == 1
        assert ONE.norm() == 1.0
        assert G.norm_sq() == 0
        assert (ONE + I).norm_sq() == 4
        assert (ONE + I).norm() == pytest.approx(2.0)

    @given(bicomplexes(), bicomplexes())
    def test_norm_sq_multiplicative(self, a, b):
        assert (a * b).norm_sq() == a.norm_sq() * b.norm_sq()

    @given(bicomplexes())
    def test_vanishes_exactly_on_zero_divisors_and_zero(self, a):
        assert (a.norm_sq() == 0) == (a.ideal() != IdealTag.NONE)

    @given(bicomplexes())
    def test_conjugate_product_is_norm_squared(self, a):
        ci, ch, cih = a.conjugates()
        assert a * ci * ch * cih == Bicomplex(a.norm_sq(), 0, 0, 0)

    def test_norm_matches_split_moduli(self):
        a = Bicomplex(Fraction(1), Fraction(1), 0, 0)
        z1, z2 = a.decompose()
        assert a.norm() == pytest.approx(abs(z1) * abs(z2))


class TestConjugates:
    def test_unit_images(self):
        assert I.conj_i() == -I
        assert K.conj_i() == -K
        assert K.conj_h() == -K
        assert K.conj_ih() == K
        assert H.conj_i() == H

    @given(bicomplexes(), bicomplexes())
    def test_each_is_an_algebra_involution(self, a, b):
        for conj in (Bicomplex.conj_i, Bicomplex.conj_h, Bicomplex.conj_ih):
            assert conj(conj(a)) == a
            assert conj(a * b) == conj(a) * conj(b)
            assert conj(a + b) == conj(a) + conj(b)


class TestInverse:
    def test_one(self):
        assert ONE.inverse() == ONE

    def test_nullific_is_not_invertible(self):
        with pytest.raises(NotInvertible):
            G.inverse()
        with pytest.raises(NotInvertible):
            ZERO.inverse()

    def test_one_plus_i(self):
        assert (ONE + I).inverse() * (ONE + I) == ONE

    @given(bicomplexes())
    def test_inverse_on_regular_elements(self, a):
        if a.ideal() == IdealTag.NONE:
            assert a.inverse() * a == ONE
        else:
            with pytest.raises(NotInvertible):
                a.inverse()


class TestText:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1 - 1*k", Bicomplex(1, 0, 0, -1)),
            ("1/2 + 3*i", Bicomplex(Fraction(1, 2), 3, 0, 0)),
            ("i", Bicomplex(0, 1, 0, 0)),
            ("-h + i", Bicomplex(0, 1, -1, 0)),
            ("0", ZERO),
            ("2.5 - 0.5*k", Bicomplex(2.5, 0, 0, -0.5)),
        ],
    )
    def test_parse(self, text, expected):
        assert Bicomplex.parse(text) == expected

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            Bicomplex.parse("1 + q")
        with pytest.raises(ValueError):
            Bicomplex.parse("")
        with pytest.raises(ValueError):
            Bicomplex.parse("1 1*i")

    @given(bicomplexes())
    def test_str_round_trip(self, a):
        assert Bicomplex.parse(str(a)) == a

    def test_zero_prints_as_zero(self):
        assert str(ZERO) == "0"
        assert str(ONE - K) == "1 - 1*k"


class TestComplexValuesAreNoScalars:
    """A RationalComplex is exact but complex: taking it as a scalar would
    give complex components, so the operators decline it."""

    a = Bicomplex(1, 2, 3, 4)
    z = RationalComplex(Fraction(1), Fraction(2))

    @pytest.mark.parametrize("name", ["__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"])
    def test_operators_return_not_implemented(self, name):
        assert getattr(self.a, name)(self.z) is NotImplemented

    @pytest.mark.parametrize(
        "op",
        [
            lambda a, z: a + z,
            lambda a, z: z + a,
            lambda a, z: a - z,
            lambda a, z: z - a,
            lambda a, z: a * z,
            lambda a, z: z * a,
        ],
        ids=["add", "radd", "sub", "rsub", "mul", "rmul"],
    )
    def test_mixing_raises_type_error(self, op):
        with pytest.raises(TypeError):
            op(self.a, self.z)
