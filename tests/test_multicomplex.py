import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercomplex import bicomplex, multicomplex
from hypercomplex.bicomplex import Bicomplex
from hypercomplex.multicomplex import Multicomplex, OrderMismatch, ZeroInput
from hypercomplex.scalars import RationalComplex

from oracles import (
    cmul,
    commuting_word_product,
    multicomplex_character,
    recursive_split,
    recursive_unsplit,
    subset_rule_product,
)
from strategies import bicomplexes, multicomplexes, small_fractions, small_ints


def basis(order, mask):
    coeffs = [0] * (1 << order)
    coeffs[mask] = 1
    return Multicomplex(order, tuple(coeffs))


class TestMultiplication:
    def test_disjoint_unit_sets_concatenate(self):
        i1 = Multicomplex.unit(3, 0)
        i2i3 = basis(3, 0b110)
        assert i1 * i2i3 == basis(3, 0b111)

    def test_square_of_a_two_unit_element_is_plus_one(self):
        i1i2 = basis(3, 0b011)
        assert i1i2 * i1i2 == Multicomplex.scalar(3, 1)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_every_basis_product_matches_word_reduction(self, order):
        for s in range(1 << order):
            for t in range(1 << order):
                sign, mask = commuting_word_product(s, t, order)
                expected = [0] * (1 << order)
                expected[mask] = sign
                assert basis(order, s) * basis(order, t) == Multicomplex(
                    order, tuple(expected)
                )

    def test_order_two_reproduces_the_bicomplex_table(self):
        for s in range(4):
            for t in range(4):
                via_tower = (basis(2, s) * basis(2, t)).to_bicomplex()
                via_bicomplex = basis(2, s).to_bicomplex() * basis(2, t).to_bicomplex()
                assert via_tower == via_bicomplex

    def test_dimension_counts(self):
        assert len(basis(3, 0).coeffs) == 8    # octrines have eight constituents
        assert len(basis(4, 0).coeffs) == 16   # four independent imaginaries
        with pytest.raises(ValueError):
            Multicomplex(0, ())
        with pytest.raises(ValueError):
            Multicomplex(17, tuple([0] * (1 << 17)))

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatch):
            basis(2, 1) * basis(3, 1)

    @given(multicomplexes(order=3), multicomplexes(order=3), multicomplexes(order=3))
    @settings(max_examples=50)
    def test_commutative_associative(self, a, b, c):
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def seeded_element(rng, order, kind):
    """Dense Fractions, small ints, a few nonzero Fractions, or a scalar or
    unit multiple."""
    size = 1 << order
    if kind == "fraction":
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(size)]
    elif kind == "int":
        coeffs = [rng.randint(-6, 6) for _ in range(size)]
    else:
        coeffs = [0] * size
        positions = rng.sample(range(size), 3 if kind == "sparse" else 1)
        if kind == "scalar":
            positions = [0]
        for pos in positions:
            coeffs[pos] = Fraction(rng.randint(1, 9), rng.randint(1, 5)) * rng.choice((-1, 1))
    return Multicomplex(order, tuple(coeffs))


KINDS = ("fraction", "int", "sparse", "scalar", "unit")


class TestProductAgainstSubsetRule:
    """Exact products and powers, whichever route they take, against the
    term-by-term product of the oracle."""

    @pytest.mark.parametrize("order", [3, 4, 5, 6])
    def test_products_match_the_oracle(self, order):
        rng = random.Random(1000 + order)
        for kind_a in KINDS:
            for kind_b in ("fraction", "int", "sparse"):
                a = seeded_element(rng, order, kind_a)
                b = seeded_element(rng, order, kind_b)
                want = Multicomplex(order, subset_rule_product(a.coeffs, b.coeffs, order))
                for got in (a * b, b * a):
                    assert got == want
                    assert str(got) == str(want)
                    assert got.to_json() == want.to_json()

    @pytest.mark.parametrize("order", [3, 4, 5])
    def test_powers_match_repeated_oracle_products(self, order):
        rng = random.Random(2000 + order)
        for kind in ("fraction", "int", "sparse", "unit"):
            a = seeded_element(rng, order, kind)
            want = [1] + [0] * ((1 << order) - 1)
            for k in range(6):
                got = a**k
                assert got == Multicomplex(order, want)
                assert str(got) == str(Multicomplex(order, want))
                want = subset_rule_product(want, a.coeffs, order)

    def test_order_ten_product_and_power_by_substitution(self):
        rng = random.Random(10)
        a = seeded_element(rng, 10, "fraction")
        b = seeded_element(rng, 10, "fraction")
        product, cube = a * b, a**3
        for _ in range(3):
            signs = [rng.choice((-1, 1)) for _ in range(10)]
            chi_a = multicomplex_character(a.coeffs, signs)
            chi_b = multicomplex_character(b.coeffs, signs)
            assert multicomplex_character(product.coeffs, signs) == cmul(chi_a, chi_b)
            assert multicomplex_character(cube.coeffs, signs) == cmul(chi_a, cmul(chi_a, chi_a))


class TestFloatBits:
    """The butterfly against the recursive split it replaced, repr for repr,
    on elements mixing floats, signed zeros, ints and Fractions."""

    @staticmethod
    def mixed(rng, size):
        pool = (0, 0.0, -0.0, 3, Fraction(-2, 3), 0.25, -1.5)
        return tuple(
            rng.choice(pool) if rng.random() < 0.6 else rng.uniform(-2.0, 2.0)
            for _ in range(size)
        )

    @staticmethod
    def check(rng, coeffs, order):
        values = recursive_split(coeffs, order)
        assert repr(Multicomplex(order, coeffs).split()) == repr(values)
        for comps in (values, TestFloatBits.complex_values(rng, order)):
            got = Multicomplex.unsplit(comps, order).coeffs
            want = tuple(recursive_unsplit(comps, order))
            if Multicomplex(order, want).is_exact():
                assert got == want
            else:
                assert repr(got) == repr(want)

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
    def test_split_and_unsplit_match_the_recursive_reference(self, order):
        rng = random.Random(3000 + order)
        for _ in range(40):
            self.check(rng, self.mixed(rng, 1 << order), order)

    def test_every_order_two_element_over_signed_zeros(self):
        rng = random.Random(3010)
        pool = (0, 0.0, -0.0, Fraction(1, 2), 1.5)
        for coeffs in itertools.product(pool, repeat=4):
            self.check(rng, coeffs, 2)

    @staticmethod
    def complex_values(rng, order):
        pool = (0.0, -0.0, 1.0, -0.5, 5e-324, -5e-324)  # halving 5e-324 underflows
        return tuple(
            complex(rng.choice(pool), rng.choice(pool)) if rng.random() < 0.5
            else complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for _ in range(1 << (order - 1))
        )

    def test_float_products_keep_the_direct_sum(self):
        rng = random.Random(3100)
        for order in (3, 4, 5):
            a = Multicomplex(order, self.mixed(rng, 1 << order))
            b = Multicomplex(order, self.mixed(rng, 1 << order))
            want = subset_rule_product(a.coeffs, b.coeffs, order)
            assert repr((a * b).coeffs) == repr(tuple(want))

    def test_products_with_plain_numbers_keep_the_direct_sum(self):
        rng = random.Random(3200)
        pool = (0, 0.0, -0.0, 3, Fraction(-2, 3), -1.5, 5e-324, float("inf"), float("nan"))
        for order in (1, 2, 3, 4):
            a = Multicomplex(order, self.mixed(rng, 1 << order))
            for c in pool:
                scalar = [c] + [0] * ((1 << order) - 1)
                want = repr(tuple(subset_rule_product(a.coeffs, scalar, order)))
                assert repr((a * c).coeffs) == want
                assert repr((c * a).coeffs) == want
                assert repr((a * Multicomplex.scalar(order, c)).coeffs) == want


class TestGatheredProduct:
    """Dense zero-free products at orders 4..8 run the direct sum's additions
    through the gather tables; they must give its bits, and every other
    product must keep its route."""

    SPECIAL = (
        5e-324, -5e-324, 2.5e-310, 1.7e308, -1.7e308, math.inf, -math.inf, math.nan,
        3, -2, Fraction(-2, 3), Fraction(7, 5),
    )

    @classmethod
    def dense(cls, rng, order, special_share):
        return Multicomplex(order, tuple(
            rng.choice(cls.SPECIAL) if rng.random() < special_share else rng.uniform(-2.0, 2.0)
            for _ in range(1 << order)
        ))

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_tables_match_the_word_reduction(self, order):
        size = 1 << order
        indices = tuple(range(2 * size))
        gathers = multicomplex._gathers(order)
        assert len(gathers) == size
        for s in range(size):
            for t in range(size):
                sign, mask = commuting_word_product(s, t, order)
                assert gathers[mask](indices)[s] == t + (size if sign < 0 else 0)

    @pytest.mark.parametrize("order,kernel", [
        (3, "_direct_product"), (4, "_gathered_product"), (5, "_gathered_product"),
        (6, "_gathered_product"), (7, "_gathered_product"), (8, "_gathered_product"),
        (9, "_direct_product"),
    ])
    def test_products_and_powers_match_the_oracle(self, order, kernel):
        rng = random.Random(4000 + order)
        pairs = 6 if order <= 6 else 1
        for j in range(pairs):
            share = (0.0, 0.05, 0.3)[j % 3]
            a, b = self.dense(rng, order, share), self.dense(rng, order, share)
            assert multicomplex._route(a.coeffs, b.coeffs, order).__name__ == kernel
            want = repr(tuple(subset_rule_product(a.coeffs, b.coeffs, order)))
            assert repr((a * b).coeffs) == want
            assert repr(multicomplex.product(a.coeffs, b.coeffs, order)) == want
            if order <= 8:
                assert repr((b * a).coeffs) == repr(tuple(subset_rule_product(b.coeffs, a.coeffs, order)))
        if order > 8:
            return
        # binary_power: a**2 is one * (a * a), a**3 is (one * a) * (a * a)
        one = [1] + [0] * ((1 << order) - 1)
        square = subset_rule_product(a.coeffs, a.coeffs, order)
        assert repr((a**2).coeffs) == repr(tuple(subset_rule_product(one, square, order)))
        if order <= 6:
            first = subset_rule_product(one, a.coeffs, order)
            assert repr((a**3).coeffs) == repr(tuple(subset_rule_product(first, square, order)))

    def test_products_that_overflow_give_the_direct_sums_inf_and_nan(self):
        a = Multicomplex(4, (1.7e308,) * 8 + (-1.7e308,) * 8)
        b = Multicomplex(4, (1.5,) * 16)
        got = (a * b).coeffs
        assert repr(got) == repr(tuple(subset_rule_product(a.coeffs, b.coeffs, 4)))
        assert any(math.isinf(x) for x in got) and any(math.isnan(x) for x in got)

    def test_one_zero_coefficient_takes_the_direct_sum(self):
        rng = random.Random(4100)
        for order in (4, 6, 8):
            a, b = self.dense(rng, order, 0.1), self.dense(rng, order, 0.1)
            for zero in (0, 0.0, -0.0, Fraction(0)):
                coeffs = list(a.coeffs)
                coeffs[rng.randrange(len(coeffs))] = zero
                c = Multicomplex(order, tuple(coeffs))
                assert multicomplex._route(c.coeffs, b.coeffs, order) is multicomplex._direct_product
                assert multicomplex._route(b.coeffs, c.coeffs, order) is multicomplex._direct_product
                assert repr((c * b).coeffs) == repr(tuple(subset_rule_product(c.coeffs, b.coeffs, order)))

    def test_an_output_no_term_lands_on_stays_the_int_zero(self):
        rng = random.Random(4200)
        b = self.dense(rng, 5, 0.0)
        for zeros in ((0.0,) * 32, (0,) * 32, (-0.0,) * 32):
            got = (Multicomplex(5, zeros) * b).coeffs
            assert got == (0,) * 32 and all(type(x) is int for x in got)

    def test_exact_dense_operands_stay_on_the_spectrum(self):
        rng = random.Random(4300)
        for order in (4, 8):
            a = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(1 << order))
            b = tuple(rng.randint(1, 9) for _ in range(1 << order))
            assert multicomplex._route(a, b, order) is multicomplex._spectral_product


kernel_exact = st.one_of(small_fractions, small_ints)
kernel_float = st.one_of(st.floats(min_value=-1e3, max_value=1e3), st.sampled_from([0.0, -0.0]))
kernel_mixed = st.one_of(kernel_exact, kernel_float, st.just(0))


class TestProductKernel:
    """The tuple kernels that ``*`` wraps and the polynomial solver calls
    give the operator's coefficients, repr for repr."""

    @pytest.mark.parametrize("scalars", [kernel_exact, kernel_float, kernel_mixed], ids=["exact", "float", "mixed"])
    @pytest.mark.parametrize("algebra", ["bicomplex", 2, 3, 4, 5])
    @settings(deadline=None)
    @given(data=st.data())
    def test_matches_the_operator(self, algebra, scalars, data):
        if algebra == "bicomplex":
            a, b = data.draw(bicomplexes(scalars)), data.draw(bicomplexes(scalars))
            got = bicomplex.product(a.components(), b.components())
        else:
            a, b = data.draw(multicomplexes(algebra, scalars)), data.draw(multicomplexes(algebra, scalars))
            got = multicomplex.product(a.coeffs, b.coeffs, algebra)
        assert repr(got) == repr((a * b).components())


class TestSplit:
    def test_real_scalar_is_diagonal(self):
        for order in (1, 2, 3, 4):
            comps = Multicomplex.scalar(order, Fraction(7, 3)).split()
            assert len(comps) == 1 << (order - 1)
            assert all(z == RationalComplex(Fraction(7, 3)) for z in comps)

    def test_order_two_matches_bicomplex_decomposition(self):
        i = Multicomplex.unit(2, 0)
        assert i.split() == tuple(Bicomplex(0, 1, 0, 0).decompose())
        h = Multicomplex.unit(2, 1)
        assert h.split() == tuple(Bicomplex(0, 0, 1, 0).decompose())

    @given(multicomplexes(order=2))
    def test_order_two_split_equals_bc_decompose(self, a):
        assert a.split() == tuple(a.to_bicomplex().decompose())

    @given(multicomplexes(order=2), multicomplexes(order=2))
    @settings(max_examples=100)
    def test_order_two_agrees_with_bicomplex_on_every_operation(self, a, b):
        fa, fb = a.to_bicomplex(), b.to_bicomplex()
        assert (a + b).to_bicomplex() == fa + fb
        assert (a - b).to_bicomplex() == fa - fb
        assert (a * b).to_bicomplex() == fa * fb
        assert (-a).to_bicomplex() == -fa
        if not a.is_zero():
            assert a.is_zero_divisor() == fa.is_zero_divisor()

    def test_primitive_idempotents_square_to_themselves(self):
        for order in (2, 3):
            ncomp = 1 << (order - 1)
            for pos in range(ncomp):
                values = [RationalComplex(Fraction(0))] * ncomp
                values[pos] = RationalComplex(Fraction(1))
                e = Multicomplex.unsplit(values, order)
                assert e * e == e
                assert not e.is_zero()

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_round_trips_both_ways(self, order):
        a = Multicomplex(
            order,
            tuple(Fraction(3 * m - 2, m + 1) for m in range(1 << order)),
        )
        assert Multicomplex.unsplit(a.split(), order) == a
        values = tuple(
            RationalComplex(Fraction(m, 7), Fraction(1 - m, 3))
            for m in range(1 << (order - 1))
        )
        assert Multicomplex.unsplit(values, order).split() == values

    @given(multicomplexes(order=3), multicomplexes(order=3))
    @settings(max_examples=100)
    def test_split_is_a_homomorphism(self, a, b):
        sa, sb = a.split(), b.split()
        assert (a * b).split() == tuple(x * y for x, y in zip(sa, sb))
        assert (a + b).split() == tuple(x + y for x, y in zip(sa, sb))

    @given(multicomplexes(order=4), multicomplexes(order=4))
    @settings(max_examples=30)
    def test_split_is_a_homomorphism_order_four(self, a, b):
        sa, sb = a.split(), b.split()
        assert (a * b).split() == tuple(x * y for x, y in zip(sa, sb))

    def test_split_homomorphism_200_seeded_pairs_up_to_order_four(self):
        import random

        rng = random.Random(1884)
        for order in (1, 2, 3, 4):
            for _ in range(50):
                a = Multicomplex(
                    order,
                    tuple(
                        Fraction(rng.randint(-20, 20), rng.randint(1, 8))
                        for _ in range(1 << order)
                    ),
                )
                b = Multicomplex(
                    order,
                    tuple(
                        Fraction(rng.randint(-20, 20), rng.randint(1, 8))
                        for _ in range(1 << order)
                    ),
                )
                assert (a * b).split() == tuple(
                    x * y for x, y in zip(a.split(), b.split())
                )


class TestZeroDivisor:
    def test_one_is_regular(self):
        assert not Multicomplex.scalar(2, 1).is_zero_divisor()

    def test_h_plus_i_is_a_zero_divisor(self):
        a = Multicomplex(2, (0, 1, 1, 0))
        assert a.is_zero_divisor()

    def test_primitive_idempotents_are_zero_divisors(self):
        ncomp = 4
        for pos in range(ncomp):
            values = [RationalComplex(Fraction(0))] * ncomp
            values[pos] = RationalComplex(Fraction(1))
            e = Multicomplex.unsplit(values, 3)
            assert e.is_zero_divisor()

    def test_zero_input_rejected(self):
        with pytest.raises(ZeroInput):
            Multicomplex.scalar(3, 0).is_zero_divisor()

    def test_one_zero_input_class(self):
        from hypercomplex import biquaternion, multicomplex, scalars

        assert multicomplex.ZeroInput is biquaternion.ZeroInput is scalars.ZeroInput

    @given(multicomplexes(order=3))
    @settings(max_examples=100)
    def test_matches_spectrum_criterion(self, a):
        if a.is_zero():
            return
        assert a.is_zero_divisor() == any(not z for z in a.split())

    def test_float_backend_tolerance(self):
        a = Multicomplex(2, (0.5, 1e-16, 0.0, -0.5))
        assert a.is_zero_divisor()


class TestText:
    def test_parse_round_trip(self):
        a = Multicomplex(2, (Fraction(1, 2), -3, 0, Fraction(7, 5)))
        assert Multicomplex.parse(str(a), 2) == a

    def test_parse_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            Multicomplex.parse("1,2,3", 2)


class TestComplexValuesAreNoScalars:
    """A RationalComplex is exact but complex: mixing it into the tower would
    give complex coefficients, so the operators decline it."""

    a = Multicomplex(3, tuple(Fraction(k + 1, 3) for k in range(8)))
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
