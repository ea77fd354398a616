import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypercomplex.bicomplex import Bicomplex
from hypercomplex.multicomplex import Multicomplex
from hypercomplex.scalars import (
    RationalComplex,
    abs_sq,
    format_scalar,
    is_exact,
    make_complex,
    parse_scalar,
    scalar_norm,
    times_i,
)

fracs = st.fractions(min_value=-9, max_value=9, max_denominator=16)


def rc(re, im=0):
    return RationalComplex(Fraction(re), Fraction(im))


class TestRationalComplex:
    @given(fracs, fracs, fracs, fracs)
    def test_field_operations_match_builtin_complex(self, a, b, c, d):
        x, y = rc(a, b), rc(c, d)
        assert complex(x + y) == pytest.approx(complex(x) + complex(y))
        assert complex(x * y) == pytest.approx(complex(x) * complex(y))
        if y:
            assert complex(x / y) == pytest.approx(complex(x) / complex(y))

    @given(fracs, fracs)
    def test_division_inverts_multiplication_exactly(self, a, b):
        x = rc(a, b)
        if not x:
            return
        assert x / x == rc(1)
        assert (rc(1) / x) * x == rc(1)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            rc(1) / rc(0)

    def test_conjugate_and_abs_sq(self):
        x = rc(Fraction(3, 2), -2)
        assert x.conjugate() == rc(Fraction(3, 2), 2)
        assert abs_sq(x) == Fraction(9, 4) + 4

    def test_times_i(self):
        assert times_i(rc(2, 3)) == rc(-3, 2)
        assert times_i(2 + 3j) == complex(-3, 2)

    def test_mixed_arithmetic_with_rationals(self):
        assert rc(1, 1) + 1 == rc(2, 1)
        assert 2 * rc(1, 1) == rc(2, 2)
        assert rc(1, 1) * Fraction(1, 2) == rc(Fraction(1, 2), Fraction(1, 2))

    def test_mixing_with_floats_degrades_to_builtin(self):
        assert isinstance(rc(1, 1) + 0.5, complex)
        assert isinstance(rc(1, 1) * (1 + 0j), complex)

    def test_integer_powers(self):
        assert rc(0, 1) ** 2 == rc(-1)
        assert rc(2, 1) ** 0 == rc(1)

    def test_equality_with_floats_is_exact_and_hash_consistent(self):
        half = rc(Fraction(1, 2), Fraction(-3, 4))
        assert half == complex(0.5, -0.75)
        assert hash(half) == hash(complex(0.5, -0.75))
        third = rc(Fraction(1, 3))
        assert third != 1 / 3  # the float is a different rational
        assert rc(Fraction(1, 2)) == 0.5
        assert hash(rc(Fraction(1, 2))) == hash(0.5)
        assert rc(1) != float("nan")


class TestBackendSelection:
    def test_make_complex(self):
        assert isinstance(make_complex(1, Fraction(1, 2)), RationalComplex)
        assert isinstance(make_complex(1.0, 2), complex)

    def test_is_exact(self):
        assert is_exact(Fraction(1, 3))
        assert is_exact(7)
        assert is_exact(rc(1))
        assert not is_exact(0.5)
        assert not is_exact(1 + 2j)


class TestText:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("3", 3),
            ("-4/7", Fraction(-4, 7)),
            ("2.5", 2.5),
            ("1e-3", 0.001),
        ],
    )
    def test_parse(self, text, value):
        got = parse_scalar(text)
        assert got == value
        assert type(got) is type(value) or isinstance(got, int)

    def test_format_round_trip_17_digits(self):
        import math

        for v in (math.pi, 1 / 3, 1e-17, -2.5):
            assert float(format_scalar(v)) == v

    def test_format_rationals(self):
        assert format_scalar(Fraction(1, 2)) == "1/2"
        assert format_scalar(Fraction(4, 2)) == "2"
        assert format_scalar(7) == "7"


class TestPowerProductCount:
    """a**k takes one product per set bit of k and one squaring per bit
    below the top one: no squaring after the last bit.  The float element
    has dyadic coefficients, so its products are exact in any order."""

    @pytest.mark.parametrize(
        "value",
        [
            RationalComplex(Fraction(1, 2), Fraction(-2, 3)),
            Bicomplex(Fraction(1, 2), 2, -1, Fraction(3, 4)),
            Multicomplex(3, (0.5, -1.0, 0.25, 2.0, 0.0, -0.75, 1.5, 1.0)),
            Multicomplex(2, (Fraction(1, 2), 2, -1, Fraction(3, 4))),
        ],
    )
    @pytest.mark.parametrize("k, products", [(0, 0), (1, 1), (2, 2), (3, 3), (4, 3), (5, 4), (6, 4)])
    def test_products_per_power(self, monkeypatch, value, k, products):
        cls = type(value)
        expected = cls.__pow__(value, 1)
        for _ in range(k - 1):
            expected = expected * value
        calls = []
        mul = cls.__mul__

        def counting_mul(a, b):
            calls.append(1)
            return mul(a, b)

        monkeypatch.setattr(cls, "__mul__", counting_mul)
        got = value**k
        assert len(calls) == products
        if k:
            assert got == expected


class TestScalarNorm:
    @given(st.lists(st.floats(min_value=-1e150, max_value=1e150), max_size=8))
    def test_keeps_the_bits_of_the_sum_of_squares(self, values):
        assert scalar_norm(values) == math.sqrt(sum(v * v for v in values))

    @pytest.mark.parametrize(
        "values, norm",
        [([1e200], 1e200), ([-1e200, 0.0, 0, 0], 1e200), ([3e200, 4e200], 5e200), ([10**300, 0], 1e300)],
    )
    def test_an_overflowing_sum_of_squares_stays_finite(self, values, norm):
        # squaring each value overflows past about 1e154, which made every
        # tolerance built on the norm infinite
        assert scalar_norm(values) == pytest.approx(norm, rel=1e-15)

    def test_nan_and_infinity_stay(self):
        assert scalar_norm([1e200, math.inf]) == math.inf
        assert math.isnan(scalar_norm([1e200, math.nan]))
