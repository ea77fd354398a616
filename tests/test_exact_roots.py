"""``ratpoly.exact_roots``, the one exact-root extractor of the package, and
the squarefree split of ``ratpoly.squarefree_roots`` in front of it.

Both of its callers find every exact root the two loops it replaced found
(kept in ``oracles``), with their multiplicities, and on squarefree input
the same roots and the same numeric roots, bit for bit; each numeric root
proposes one rounded point, so multiple roots come back exact too.
"""

import collections
import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hypercomplex import polysolve, surd
from hypercomplex import ratpoly as rp
from hypercomplex.scalars import RationalComplex

from oracles import reference_gaussian_roots, reference_rational_roots
from strategies import small_fractions

nonzero_fractions = small_fractions.filter(bool)
planted = st.lists(st.tuples(small_fractions, st.integers(1, 3)), max_size=3)
gaussian_rationals = st.builds(RationalComplex, small_fractions, small_fractions)
gaussian_planted = st.lists(st.tuples(gaussian_rationals, st.integers(1, 3)), max_size=3)

# factors without rational (or Gaussian-rational) roots, ascending
IRRATIONAL_FACTORS = ((-2, 0, 1), (1, 1, 1), (1, -3, 1), (-2, 0, 0, 1), (3, 0, 1))


def times_roots(coeffs, roots):
    """Ascending coefficients of p(x) * prod (x - r)."""
    for r in roots:
        coeffs = (
            [-r * coeffs[0]]
            + [coeffs[i - 1] - r * coeffs[i] for i in range(1, len(coeffs))]
            + [coeffs[-1]]
        )
    return coeffs


def expand(lead, factor, roots):
    cs = [lead * c for c in factor]
    return times_roots(cs, [r for r, m in roots for _ in range(m)])


def outcome(extract, *args):
    """(exact roots sorted by value, with multiplicity, float bits of the
    numeric roots), or the error raised.  The order in which exact roots
    are found depends on the finder runs, so only their sorted lists are
    compared."""
    try:
        exact, numeric = extract(*args)
    except polysolve.NoConvergence as exc:
        return "NoConvergence", str(exc)
    exact = sorted(exact, key=lambda z: (z.real, z.imag))
    return exact, [(z.real.hex(), z.imag.hex()) for z in numeric]


def squarefree(roots) -> bool:
    return all(m == 1 for m in collections.Counter(r for r, m in roots for _ in range(m)).values())


def covers(got, reference, squarefree_input: bool):
    """The exact roots of ``got`` include those of ``reference``, with
    multiplicity; on squarefree input the two outcomes are the same."""
    assert not isinstance(got[0], str), got
    if isinstance(reference[0], str):   # the reference loop did not converge
        return
    missing = collections.Counter(reference[0]) - collections.Counter(got[0])
    assert not missing
    if squarefree_input:
        assert got == reference


class TestSameAsTheLoopsItReplaced:
    """On squarefree input the extractor gives the loops' exact roots and
    the bits of their numeric roots; on any input it finds every exact
    root they find, with multiplicity."""

    # The loops' run on the quotient by x + 2 does not snap the double root
    # 19/8, and the double roots 1/2 and 30/7 defeat them the other way;
    # one rounded point per numeric root finds all of them.
    @example(Fraction(1), (-2, 0, 1), [(Fraction(-2), 1), (Fraction(19, 8), 2)])
    @example(Fraction(1), (3, 0, 1), [(Fraction(1), 1), (Fraction(1, 2), 2), (Fraction(30, 7), 2)])
    @settings(max_examples=150, deadline=None)
    @given(nonzero_fractions, st.sampled_from(IRRATIONAL_FACTORS + ((1,),)), planted)
    def test_rational_roots(self, lead, factor, roots):
        p = tuple(expand(lead, [Fraction(c) for c in factor], roots))
        covers(outcome(rp.rational_roots, p), outcome(reference_rational_roots, p), squarefree(roots))

    @settings(max_examples=150, deadline=None)
    @given(
        gaussian_rationals.filter(bool),
        st.sampled_from(IRRATIONAL_FACTORS + ((1,),)),
        gaussian_planted,
    )
    def test_gaussian_component_roots(self, lead, factor, roots):
        coeffs = expand(lead, [RationalComplex(Fraction(c)) for c in factor], roots)
        assume(len(coeffs) >= 2)
        covers(
            outcome(gaussian_roots, coeffs),
            outcome(reference_gaussian_roots, coeffs, polysolve.complex_roots),
            squarefree(roots),
        )


def gaussian_roots(coeffs):
    """The split solver's extraction of one component, its exact
    ``(a, b, d)`` points as ``RationalComplex`` values."""
    exact, numeric = polysolve._extract(coeffs)
    return [RationalComplex(Fraction(a, d), Fraction(b, d)) for a, b, d in exact], numeric


class TestMultipleRoots:
    @pytest.mark.parametrize(
        "factor, roots",
        [
            ((1,), [(Fraction(2), 3)]),
            ((-2, 0, 1), [(Fraction(1, 3), 3)]),
            ((-2, 0, 1), [(Fraction(-2), 1), (Fraction(19, 8), 2)]),
        ],
        ids=["(x-2)^3", "(x-1/3)^3(x^2-2)", "(x+2)(x-19/8)^2(x^2-2)"],
    )
    def test_rational_roots_come_back_exact(self, factor, roots):
        exact, numeric = rp.rational_roots(tuple(expand(Fraction(1), factor, roots)))
        assert exact == [r for r, m in roots for _ in range(m)]
        assert len(numeric) == len(factor) - 1

    # Gaussian rationals with denominators up to 9 and multiplicities 1-3,
    # times a quadratic irreducible over Q(i)
    @settings(max_examples=60, deadline=None)
    @given(
        st.builds(
            RationalComplex,
            st.fractions(-5, 5, max_denominator=9),
            st.fractions(-5, 5, max_denominator=9),
        ).filter(bool),
        st.sampled_from([f for f in IRRATIONAL_FACTORS if len(f) == 3]),
        st.lists(
            st.tuples(
                st.builds(
                    RationalComplex,
                    st.fractions(-5, 5, max_denominator=9),
                    st.fractions(-5, 5, max_denominator=9),
                ),
                st.integers(1, 3),
            ),
            min_size=1,
            max_size=3,
            unique_by=lambda rm: rm[0],
        ),
    )
    def test_gaussian_component_roots_come_back_exact(self, lead, quadratic, roots):
        coeffs = expand(lead, [RationalComplex(Fraction(c)) for c in quadratic], roots)
        got = polysolve._component_roots(coeffs)
        planted = sorted((r for r, m in roots for _ in range(m)), key=lambda z: (z.re, z.im))
        assert got[:-2] == planted
        assert not any(isinstance(z, RationalComplex) for z in got[-2:])


class TestSquarefreeSplit:
    def test_the_prime_has_a_square_root_of_minus_one(self):
        P = rp._P
        # Miller-Rabin on the first twelve prime bases decides primality
        # below 3.3e24
        s, t = 0, P - 1
        while t % 2 == 0:
            s, t = s + 1, t // 2
        for base in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
            x = pow(base, t, P)
            assert x in (1, P - 1) or P - 1 in [pow(x, 2**j, P) for j in range(1, s)]
        assert P % 4 == 1
        assert rp._I * rp._I % P == P - 1

    @pytest.mark.parametrize(
        "coeffs, squarefree",
        [
            ((-2, 0, 1), True),
            ((1, 1), True),
            ((1, -2, 1), False),              # (z - 1)**2
            ((0, 0, 1), False),               # z**2
            (((-1, 0), (0, -2), (1, 0)), False),   # (z - i)**2
        ],
    )
    def test_mod_p_test(self, coeffs, squarefree):
        scaled = [c if isinstance(c, tuple) else (c, 0) for c in coeffs]
        assert rp._squarefree_mod_p(scaled) is squarefree

    def test_each_factor_is_extracted_once(self, monkeypatch):
        # (z - 1)**3 (z + i)**2 (z**2 - 2)**2 = f_2**2 f_3**3: one run on
        # f_2 = (z + i)(z**2 - 2), one on its quotient z**2 - 2, one on f_3
        runs = []
        finder = polysolve.complex_roots
        monkeypatch.setattr(polysolve, "complex_roots", lambda cs: runs.append(len(cs)) or finder(cs))
        coeffs = expand(
            RationalComplex(Fraction(1)),
            [RationalComplex(Fraction(c)) for c in (4, 0, -4, 0, 1)],
            [(RationalComplex(Fraction(1)), 3), (RationalComplex(Fraction(0), Fraction(-1)), 2)],
        )
        exact, numeric = polysolve._extract(coeffs)
        assert exact == [(0, -1, 1)] * 2 + [(1, 0, 1)] * 3
        want = [-math.sqrt(2)] * 2 + [math.sqrt(2)] * 2
        assert len(numeric) == 4 and all(abs(z - w) < 1e-12 for z, w in zip(numeric, want))
        assert runs == [4, 3, 2]


def test_classify_roots_runs_numpy_once_per_remainder(monkeypatch):
    calls = []
    original = rp.numpy_roots
    monkeypatch.setattr(rp, "numpy_roots", lambda p: calls.append(tuple(p)) or original(p))
    # stock x**3 - x**2 + 2*x: 0 snaps, x**2 - x + 2 keeps a complex pair
    report = surd.classify_roots(surd.parse_surd("x + sqrt(x^3 + 1) = 1"))
    assert report.stock == (0, 2, -1, 1)
    assert calls == [(0, 2, -1, 1), (2, -1, 1)]
    assert [r.exact for r in report.roots] == [True, False, False]


def test_constant_polynomials_call_no_finder():
    def finder(p):
        raise AssertionError("numeric finder called")

    for p in ((), (Fraction(3),), (RationalComplex(Fraction(1), Fraction(2)),)):
        assert rp.exact_roots(*rp.gaussian_integers(p), finder) == ([], [])
        assert rp.squarefree_roots(*rp.gaussian_integers(p), finder) == ([], [])
