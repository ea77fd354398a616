import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercomplex import ratpoly as rp
from hypercomplex.surd import (
    CongenerReport,
    ParseError,
    RadicalTerm,
    SurdEquation,
    UnsupportedNesting,
    VanishedStock,
    classify_roots,
    congeners,
    parse_surd,
    stock_equation,
)
from hypercomplex.scalars import InvariantError

from oracles import reference_stock_equation

fractions_with_denominators = st.fractions(min_value=-5, max_value=5, max_denominator=7)


def nonzero_poly(max_degree):
    return st.lists(fractions_with_denominators, min_size=1, max_size=max_degree + 1).map(
        rp.normalize
    ).filter(bool)


@st.composite
def surd_equations(draw):
    """1-4 distinct radicands of degree <= 8 with rational coefficients,
    either sign on each radical and a base that may be zero."""
    radicands = draw(st.lists(nonzero_poly(8), min_size=1, max_size=4, unique=True))
    terms = []
    for radicand in radicands:
        coeff = draw(nonzero_poly(2))
        if coeff[-1] < 0:
            coeff = rp.neg(coeff)
        terms.append(RadicalTerm(draw(st.sampled_from((1, -1))), coeff, radicand))
    base = draw(st.one_of(st.just(()), nonzero_poly(4)))
    return SurdEquation(base, tuple(terms))


def poly(*ascending):
    return rp.normalize([Fraction(c) for c in ascending])


class TestParser:
    def test_horner_example(self):
        eq = parse_surd("2*x + sqrt(x^2 - 7) = 5")
        assert eq.base == poly(-5, 2)
        assert len(eq.terms) == 1
        t = eq.terms[0]
        assert (t.sign, t.coeff, t.radicand) == (1, poly(1), poly(-7, 0, 1))

    def test_cockle_example(self):
        eq = parse_surd("1 + sqrt(x) = 0")
        assert eq.base == poly(1)
        assert eq.terms[0].sign == 1
        assert eq.terms[0].radicand == poly(0, 1)

    def test_nested_radicals_rejected(self):
        with pytest.raises(UnsupportedNesting):
            parse_surd("sqrt(sqrt(x)) = 1")
        with pytest.raises(UnsupportedNesting):
            parse_surd("sqrt(1 + sqrt(x)) = 0")

    def test_rational_coefficients(self):
        eq = parse_surd("1/2*x + 3/4*sqrt(x) = 2/3")
        assert eq.base == poly(Fraction(-2, 3), Fraction(1, 2))
        assert eq.terms[0].coeff == poly(Fraction(3, 4))

    def test_negative_radical_sign_extracted(self):
        eq = parse_surd("x - sqrt(x) = 0")
        assert eq.terms[0].sign == -1
        assert eq.terms[0].coeff == poly(1)

    def test_like_radicands_merge(self):
        eq = parse_surd("sqrt(x) + 2*sqrt(x) + x = 1")
        assert len(eq.terms) == 1
        assert eq.terms[0].coeff == poly(3)

    def test_cancelled_radical_is_an_error(self):
        with pytest.raises(ParseError):
            parse_surd("sqrt(x) - sqrt(x) + x = 1")

    def test_no_radical_is_an_error(self):
        with pytest.raises(ParseError):
            parse_surd("x + 1 = 0")

    def test_error_carries_position_and_expectations(self):
        with pytest.raises(ParseError) as info:
            parse_surd("2*x + = 5")
        assert info.value.position == 6
        assert "INT" in info.value.expected

    def test_float_literals_rejected(self):
        with pytest.raises(ParseError):
            parse_surd("1.5 + sqrt(x) = 0")

    def test_unknown_names_rejected(self):
        with pytest.raises(ParseError):
            parse_surd("y + sqrt(x) = 0")

    def test_radical_count_cap(self):
        eq = "1" + "".join(f" + sqrt(x + {m})" for m in range(5)) + " = 0"
        with pytest.raises(ParseError):
            parse_surd(eq)

    def test_radicand_degree_cap(self):
        with pytest.raises(ParseError):
            parse_surd("1 + sqrt(x^9) = 0")

    def test_polynomial_coefficient_on_a_radical(self):
        eq = parse_surd("1 + (x + 1)*sqrt(x) = 0")
        assert eq.terms[0].coeff == poly(1, 1)

    @pytest.mark.parametrize(
        "text",
        [
            "2*x + sqrt(x^2 - 7) = 5",
            "1 + sqrt(x) = 0",
            "x - sqrt(x) = 0",
            "1 + sqrt(x) + sqrt(x + 1) = 0",
            "1 + (x + 1)*sqrt(x) = 0",
            "3/2 - 2*sqrt(x^2 + 1) = x",
        ],
    )
    def test_round_trip_is_a_fixed_point(self, text):
        eq = parse_surd(text)
        assert parse_surd(str(eq)) == eq


class TestCongeners:
    def test_single_radical_gives_the_sign_pair(self):
        eq = parse_surd("2*x + sqrt(x^2 - 7) = 5")
        cs = congeners(eq)
        assert [c.signs() for c in cs] == [(1,), (-1,)]
        assert cs[0] == eq

    def test_two_radicals_give_four(self):
        eq = parse_surd("1 + sqrt(x) + sqrt(x + 1) = 0")
        cs = congeners(eq)
        assert len(cs) == 4
        assert {c.signs() for c in cs} == {(1, 1), (-1, 1), (1, -1), (-1, -1)}
        assert cs[0] == eq

    def test_sign_vectors_cover_each_combination_once(self):
        eq = parse_surd("1 - sqrt(x) + sqrt(x + 1) - sqrt(x + 2) = 0")
        cs = congeners(eq)
        assert len({c.signs() for c in cs}) == 8


class TestStockEquation:
    def test_horner_stock(self):
        eq = parse_surd("2*x + sqrt(x^2 - 7) = 5")
        assert stock_equation(eq) == poly(32, -20, 3)

    def test_cockle_stock(self):
        # (1 + sqrt(x))(1 - sqrt(x)) = 1 - x, normalized to x - 1
        eq = parse_surd("1 + sqrt(x) = 0")
        assert stock_equation(eq) == poly(-1, 1)

    def test_two_radical_stock(self):
        # ((1+sqrt(x))^2 - (x+1)) * ((1-sqrt(x))^2 - (x+1)) = -4x
        eq = parse_surd("1 + sqrt(x) + sqrt(x + 1) = 0")
        assert stock_equation(eq) == poly(0, 1)

    def test_unrationalized_product_raises(self, monkeypatch):
        # With a sign flip that flips nothing, F*F = 1 + x + 2*sqrt(x)
        # keeps its radical.
        eq = parse_surd("1 + sqrt(x) = 0")
        monkeypatch.setattr("hypercomplex.ratpoly.neg", lambda p: p)
        with pytest.raises(InvariantError, match="rationalize"):
            stock_equation(eq)

    @settings(max_examples=60, deadline=None)
    @given(surd_equations())
    def test_norm_tower_matches_the_congener_product(self, eq):
        want = reference_stock_equation(
            eq.base, [(t.sign, t.coeff, t.radicand) for t in eq.terms]
        )
        got = stock_equation(eq)
        assert got == want
        assert all(type(c) is Fraction for c in got)

    def test_ratpoly_mul_keeps_the_coefficient_type(self):
        # the tower multiplies ints, the parser Fractions; a slot no term
        # reaches keeps the type of the start value
        product = rp.mul(poly(1, 0, Fraction(1, 2)), poly(Fraction(2, 3)))
        assert repr(product) == "(Fraction(2, 3), Fraction(0, 1), Fraction(1, 3))"
        product = rp.mul((1, 0, 2), (3, -1))
        assert product == (3, -1, 6, -2)
        assert all(type(c) is int for c in product)

    def test_a_non_root_candidate_stays_numeric(self, monkeypatch):
        # A finder whose roots round to 1 and -1, no roots of x**2 - 2:
        # neither is returned as an exact root, and the finder's roots
        # come back whole.
        fake = [complex(1.2, 0.1), complex(-1.4, 0.0)]
        monkeypatch.setattr(rp, "numpy_roots", lambda p: fake)
        assert rp.rational_roots(poly(-2, 0, 1)) == ([], fake)

    def test_vanished_stock_raises(self):
        # The parser rejects equations without a radical; built directly,
        # the empty equation has the zero stock polynomial.
        with pytest.raises(VanishedStock, match="vanished"):
            classify_roots(SurdEquation(base=(), terms=()))

    def test_primitive_and_positive_leading(self):
        eq = parse_surd("4*x + 2*sqrt(x^2 - 7) = 10")
        assert stock_equation(eq) == poly(32, -20, 3)

    @pytest.mark.parametrize(
        "text",
        [
            "2*x + sqrt(x^2 - 7) = 5",
            "1 + sqrt(x) + sqrt(x + 1) = 0",
            "x - 2*sqrt(x + 3) + sqrt(2*x + 1) = 1",
        ],
    )
    def test_product_identity_at_sample_points(self, text):
        # the float product of all congener evaluations must match the stock
        # polynomial wherever every radicand is positive
        eq = parse_surd(text)
        stock = stock_equation(eq)
        rng = random.Random(31)
        checked = 0
        while checked < 20:
            x0 = rng.uniform(0.0, 5.0)
            values = []
            ok = True
            for congener in congeners(eq):
                acc = float(rp.evaluate(congener.base, x0))
                for t in congener.terms:
                    r = float(rp.evaluate(t.radicand, x0))
                    if r < 0:
                        ok = False
                        break
                    acc += t.sign * float(rp.evaluate(t.coeff, x0)) * math.sqrt(r)
                if not ok:
                    break
                values.append(acc)
            if not ok:
                continue
            product = math.prod(values)
            want = float(rp.evaluate(stock, x0))
            # the product may differ from the primitive stock polynomial by
            # the positive content that normalization removed
            ratio = product / want if want else None
            if checked == 0:
                first_ratio = ratio
            assert ratio is not None
            assert abs(ratio - first_ratio) <= 1e-8 * abs(first_ratio)
            checked += 1


class TestClassification:
    def test_horner_worked_example(self):
        report = classify_roots(parse_surd("2*x + sqrt(x^2 - 7) = 5"))
        assert report.stock == poly(32, -20, 3)
        assert report.order == (2, 2)
        assert report.order_str == "2/2"
        plus, minus = report.congeners
        assert plus.signs == (1,) and not plus.possible and plus.roots == ()
        assert minus.signs == (-1,) and minus.possible
        assert set(minus.roots) == {Fraction(4), Fraction(8, 3)}
        assert all(r.exact and not r.ambiguous for r in report.roots)

    def test_cockle_motivating_equation(self):
        report = classify_roots(parse_surd("1 + sqrt(x) = 0"))
        assert report.order == (1, 2)
        plus, minus = report.congeners
        assert not plus.possible
        assert minus.possible and minus.roots == (Fraction(1),)

    def test_root_where_the_radical_vanishes_lands_on_both_congeners(self):
        report = classify_roots(parse_surd("x - sqrt(x) = 0"))
        zero_report = next(r for r in report.roots if r.value == 0)
        assert set(zero_report.assigned) == {0, 1}
        assert all(st.possible for st in report.congeners)
        assert report.order == (2, 2)

    def test_every_real_root_assigned_or_ambiguous(self):
        for text in [
            "2*x + sqrt(x^2 - 7) = 5",
            "x - sqrt(x) = 0",
            "1 + sqrt(x) + sqrt(x + 1) = 0",
            "x - 2*sqrt(x + 3) + sqrt(2*x + 1) = 1",
        ]:
            report = classify_roots(parse_surd(text))
            for r in report.roots:
                if isinstance(r.value, complex):
                    continue
                assert r.assigned or r.ambiguous

    def test_negative_radicand_root_is_branch_ambiguous(self):
        # with radicands x-1 and 4x-4 the imaginary radical values at x = 0
        # cancel under one branch choice and reinforce under the other, so
        # the satisfied congener set depends on the branch: ambiguous.
        # stock = (x + 4s)(x)(x)(x - 4s) with s = sqrt(x-1)
        #       = x^2 (x^2 - 16x + 16)
        report = classify_roots(parse_surd("x + 2*sqrt(x - 1) - sqrt(4*x - 4) = 0"))
        assert report.stock == poly(0, 0, 16, -16, 1)
        zero = next(r for r in report.roots if r.value == 0)
        assert zero.ambiguous and zero.assigned == ()
        others = [r for r in report.roots if r.value != 0]
        assert len(others) == 2  # 8 +- 4*sqrt(3)
        for r in others:
            assert not r.ambiguous
            # both land on the all-minus congener, index 1 here
            assert r.assigned == (1,)
        assert report.congeners[1].signs == (-1, -1)
        assert report.congeners[1].possible
        assert not report.congeners[0].possible

    def test_a_root_with_one_negative_radicand_is_assigned_on_every_branch(self):
        # at x = 0 the radicand x - 1 is -1 and x + 4 is 4: the imaginary
        # radical's coefficient x vanishes, so both branches of sqrt(-1)
        # satisfy the congeners where +sqrt(4) meets the 2, and no others
        report = classify_roots(parse_surd("x*sqrt(x - 1) + sqrt(x + 4) = 2"))
        assert report.stock == poly(0, 0, 17, -14, -1, -2, 1)
        zero = next(r for r in report.roots if r.value == 0)
        assert zero.exact and zero.assigned == (0, 1) and not zero.ambiguous
        assert [c.signs for c in report.congeners[:2]] == [(1, 1), (-1, 1)]

    def test_exact_zero_evaluation_for_perfect_square_radicands(self):
        report = classify_roots(parse_surd("2*x + sqrt(x^2 - 7) = 5"))
        # both roots produce perfect-square radicands (9 and 1/9), so the
        # assignment is decided exactly, not within a float tolerance
        assert all(r.exact for r in report.roots)

    def test_irrational_real_roots_assigned_numerically(self):
        report = classify_roots(parse_surd("x + sqrt(2*x + 10) = 0"))
        assert report.stock == poly(-10, -2, 1)
        assert all(not r.exact for r in report.roots)
        minus = report.congeners[1]
        assert report.congeners[0].possible or minus.possible


class TestReportShape:
    def test_congener_order_is_input_first(self):
        eq = parse_surd("2*x - sqrt(x^2 - 7) = 5")  # minus variant as input
        report = classify_roots(eq)
        assert report.congeners[0].signs == (-1,)
        assert report.congeners[0].possible

    def test_order_fraction_not_reduced(self):
        report = classify_roots(parse_surd("x - sqrt(x) = 0"))
        assert report.order_str == "2/2"
