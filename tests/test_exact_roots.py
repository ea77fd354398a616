"""``ratpoly.exact_roots``, the one exact-root extractor of the package.

Both of its callers find the exact roots the two loops it replaced found
(kept in ``oracles``), with their multiplicities, and leave the same numeric
roots, bit for bit; the numeric finder runs once on a polynomial that one
run splits completely into simple exact roots, and once on each quotient
otherwise.
"""

from fractions import Fraction

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


class TestSameAsTheLoopsItReplaced:
    # The first numpy run gives both the simple root -2 and the double root
    # 19/8, while the loops' run on the quotient by x + 2 does not snap
    # 19/8; with the double roots 1/2 and 30/7 the runs differ the other
    # way.  Neither polynomial splits completely, so each takes a run per
    # root, as the loops did.
    @example(Fraction(1), (-2, 0, 1), [(Fraction(-2), 1), (Fraction(19, 8), 2)])
    @example(Fraction(1), (3, 0, 1), [(Fraction(1), 1), (Fraction(1, 2), 2), (Fraction(30, 7), 2)])
    @settings(max_examples=150, deadline=None)
    @given(nonzero_fractions, st.sampled_from(IRRATIONAL_FACTORS + ((1,),)), planted)
    def test_rational_roots(self, lead, factor, roots):
        p = tuple(expand(lead, [Fraction(c) for c in factor], roots))
        assert outcome(rp.rational_roots, p) == outcome(reference_rational_roots, p)

    @settings(max_examples=150, deadline=None)
    @given(
        gaussian_rationals.filter(bool),
        st.sampled_from(IRRATIONAL_FACTORS + ((1,),)),
        gaussian_planted,
    )
    def test_gaussian_component_roots(self, lead, factor, roots):
        coeffs = expand(lead, [RationalComplex(Fraction(c)) for c in factor], roots)
        assume(len(coeffs) >= 2)
        assert outcome(gaussian_roots, coeffs) == outcome(
            reference_gaussian_roots, coeffs, polysolve.complex_roots
        )


def gaussian_roots(coeffs):
    """``exact_roots`` with the ladder candidates of ``polysolve``, its
    exact ``(a, b, d)`` points as ``RationalComplex`` values."""
    exact, numeric = rp.exact_roots(*rp.gaussian_integers(coeffs), polysolve.complex_roots, polysolve._candidates)
    return [RationalComplex(Fraction(a, d), Fraction(b, d)) for a, b, d in exact], numeric


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

    def candidates(r):
        raise AssertionError("candidates called")

    for p in ((), (Fraction(3),), (RationalComplex(Fraction(1), Fraction(2)),)):
        assert rp.exact_roots(*rp.gaussian_integers(p), finder, candidates) == ([], [])
