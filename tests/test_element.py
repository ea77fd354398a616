"""The operator contract that every element class gets from ``Element``."""

from fractions import Fraction

import pytest

from hypercomplex.bicomplex import Bicomplex, IdealTag
from hypercomplex.biquaternion import Biquaternion
from hypercomplex.multicomplex import Multicomplex, OrderMismatch
from hypercomplex.quadruple import QuadElement, TableMismatch, named_table
from hypercomplex.scalars import RationalComplex, ZeroInput

QUAT = named_table("quaternion")
COQUAT = named_table("coquaternion")

# (class name, element maker from four exact scalars)
MAKERS = {
    "Bicomplex": lambda w, x, y, z: Bicomplex(w, x, y, z),
    "Multicomplex": lambda w, x, y, z: Multicomplex(2, (w, x, y, z)),
    "Biquaternion": lambda w, x, y, z: Biquaternion(w, x, y, z),
    "QuadElement": lambda w, x, y, z: QuadElement(w, x, y, z, table=QUAT),
}


@pytest.fixture(params=list(MAKERS))
def make(request):
    return MAKERS[request.param]


X = (Fraction(1, 2), -3, 2, Fraction(5, 3))
Y = (4, Fraction(-2, 7), 0, Fraction(1, 3))
S = Fraction(7, 4)


def test_zero_is_falsy_and_nonzero_is_truthy(make):
    assert not make(0, 0, 0, 0)
    assert make(*X)


def test_scalar_subtraction_matches_the_explicit_element(make):
    x, s = make(*X), make(S, 0, 0, 0)
    assert S - x == s - x
    assert x - S == x - s


def test_scalar_sum_and_product_match_the_explicit_element(make):
    x, s = make(*X), make(S, 0, 0, 0)
    assert S + x == s + x
    assert x + S == x + s
    assert S * x == s * x
    assert x * S == x * s


def test_sum_negation_and_difference_are_componentwise(make):
    x, y = make(*X), make(*Y)
    for got, expected in (
        (x + y, [a + b for a, b in zip(X, Y)]),
        (-x, [-a for a in X]),
        (x - y, [a - b for a, b in zip(X, Y)]),
    ):
        assert got == make(*expected)
        assert got.is_exact()
    # floats keep the bits of the componentwise difference, signed zeros
    # too: -0.0 - 0 is -0.0, where -0.0 + (-0) would be 0.0
    x, y = make(-0.0, 1.5, 0, 2.25), make(0, 0.5, -0.0, -1.0)
    for a, b in ((x, y), (y, x)):
        expected = [u - v for u, v in zip(a.components(), b.components())]
        assert repr(a - b) == repr(make(*expected))


def test_a_float_minus_an_exact_zero_keeps_its_signed_zero():
    # a Biquaternion's components are complex or RationalComplex;
    # complex(-0.0, 0.0) - RationalComplex(0) is (-0+0j), as -0.0 - 0 is
    first = (Biquaternion(-0.0, 1, 2, 3) - Biquaternion(0, 1, 2, 3)).c0
    assert repr(first) == "(-0+0j)"
    assert repr(complex(-0.0, 0.0) - RationalComplex(0)) == "(-0+0j)"
    assert repr(RationalComplex(0) - complex(0.0, -0.0)) == "0j"
    assert RationalComplex(1, 2) - RationalComplex(Fraction(1, 2)) == RationalComplex(Fraction(1, 2), 2)
    assert 3 - RationalComplex(1, 2) == RationalComplex(2, -2)


def test_subtracting_from_a_string_names_the_minus(make):
    with pytest.raises(TypeError, match="for -:"):
        "s" - make(*X)
    with pytest.raises(TypeError, match="for -:"):
        make(*X) - "s"


def test_powers_are_repeated_products(make):
    x = make(*X)
    expected = make(1, 0, 0, 0)
    for k in range(5):
        assert x ** k == expected
        expected = expected * x


@pytest.mark.parametrize("k", [-1, 1.0])
def test_powers_take_nonnegative_ints_only(make, k):
    with pytest.raises(ValueError):
        make(*X) ** k


def test_quad_elements_of_different_tables_do_not_mix():
    u = QuadElement(1, 2, 3, 4, table=QUAT)
    v = QuadElement(1, 2, 3, 4, table=COQUAT)
    for op in (lambda: u + v, lambda: u - v, lambda: u * v, lambda: u ** 2 * v):
        with pytest.raises(TableMismatch):
            op()


def test_multicomplex_elements_of_different_orders_do_not_mix():
    u = Multicomplex(2, (1, 2, 3, 4))
    v = Multicomplex(3, (1, 2, 3, 4, 5, 6, 7, 8))
    for op in (lambda: u + v, lambda: u - v, lambda: u * v, lambda: v + u, lambda: v * u):
        with pytest.raises(OrderMismatch):
            op()


class TestOneZeroInputRule:
    def test_every_zero_divisor_test_raises_at_zero(self):
        for test in (
            Bicomplex(0, 0, 0, 0).is_zero_divisor,
            Multicomplex.scalar(2, 0).is_zero_divisor,
            Biquaternion(0, 0, 0, 0).is_nullifier,
        ):
            with pytest.raises(ZeroInput):
                test()

    def test_bicomplex_ideal_of_zero_stays_a_tag(self):
        assert Bicomplex(0, 0, 0, 0).ideal() is IdealTag.ZERO

    @pytest.mark.parametrize(
        "coeffs, expected",
        [((1, 0, 0, 1), True), ((1, 2, 3, 4), False), ((0.5, 0.0, 0.0, -0.5), True)],
    )
    def test_bicomplex_and_order_two_agree(self, coeffs, expected):
        assert Bicomplex(*coeffs).is_zero_divisor() is expected
        assert Multicomplex(2, coeffs).is_zero_divisor() is expected


class TestRationalComplexDefersToElements:
    """An exact complex scalar on the left hands unknown operands to their
    reflected operator instead of raising."""

    Z = RationalComplex(Fraction(1), Fraction(2))
    Q = Biquaternion(1, 2, 3, 4)

    @pytest.mark.parametrize(
        "op",
        [
            lambda z, q: z + q,
            lambda z, q: q + z,
            lambda z, q: z - q,
            lambda z, q: q - z,
            lambda z, q: z * q,
            lambda z, q: q * z,
        ],
        ids=["add", "radd", "sub", "rsub", "mul", "rmul"],
    )
    def test_mixed_with_a_biquaternion(self, op):
        z_element = Biquaternion(self.Z, 0, 0, 0)
        assert op(self.Z, self.Q) == op(z_element, self.Q)

    @pytest.mark.parametrize("name", ["__add__", "__mul__", "__truediv__", "__rtruediv__"])
    def test_unknown_operand_is_not_implemented(self, name):
        assert getattr(self.Z, name)(self.Q) is NotImplemented
        assert getattr(self.Z, name)("s") is NotImplemented

    def test_division_either_way_raises_type_error(self):
        with pytest.raises(TypeError):
            self.Z / self.Q
        with pytest.raises(TypeError):
            self.Q / self.Z

    def test_float_divided_by_exact_complex(self):
        assert 2.0 / self.Z == 2.0 / complex(self.Z)

    def test_coerce_still_raises(self):
        with pytest.raises(TypeError, match="cannot coerce"):
            RationalComplex.coerce(self.Q)
