"""The benchmark's own checks must reject corrupted results.

    python3 -m pytest -q perfbench/test_checks.py

Each test takes a right output from the program, confirms the check passes
it, then corrupts it (a wrong product, a perturbed or dropped root, a
congener assigned wrongly, a bad CLI payload) and confirms the check fails.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracle  # noqa: E402
import wl_cli  # noqa: E402
import wl_roots  # noqa: E402
import wl_surd  # noqa: E402
import wl_tower  # noqa: E402
from common import rng_for  # noqa: E402

from hypercomplex import Bicomplex, Biquaternion, Multicomplex, RationalComplex, polysolve, surd  # noqa: E402


def _bump(coeffs, k=0, by=Fraction(1, 7)):
    out = list(coeffs)
    out[k] = out[k] + by
    return tuple(out)


# -- oracle ---------------------------------------------------------------------


def test_characters_are_homomorphisms_and_invert():
    rng = rng_for(1, "test")
    for n in range(1, 6):
        a = Multicomplex(n, tuple(wl_tower._scalar(rng, "exact") for _ in range(1 << n)))
        b = Multicomplex(n, tuple(wl_tower._scalar(rng, "exact") for _ in range(1 << n)))
        ca, cb = oracle.characters(a.coeffs), oracle.characters(b.coeffs)
        assert oracle.characters((a * b).coeffs) == [oracle.cmul(x, y) for x, y in zip(ca, cb)]
        assert tuple(oracle.element_from_characters(ca)) == a.coeffs


def test_characters_of_units_by_hand():
    # i1 -> i under every i1 -> +i character; i1*i2 -> -sigma_2
    i1 = (0, 1, 0, 0)
    k = (0, 0, 0, 1)
    assert oracle.characters(i1) == [(0, 1), (0, 1)]
    assert oracle.characters(k) == [(-1, 0), (1, 0)]


# -- tower ----------------------------------------------------------------------


def test_tower_rejects_wrong_product_split_flag_inverse():
    rng = rng_for(2, "test")
    for backend in ("exact", "float"):
        a, b = wl_tower._dense(rng, 4, backend), wl_tower._dense(rng, 4, backend)
        c = a * b
        assert wl_tower.check_mc_mul(a, b, c) == []
        bad = Multicomplex(4, _bump(c.coeffs, 5, 1e-3 if backend == "float" else Fraction(1, 7)))
        assert wl_tower.check_mc_mul(a, b, bad)
        parts = a.split()
        assert wl_tower.check_mc_split(a, parts) == []
        assert wl_tower.check_mc_split(a, parts[::-1])
        k = 3 if backend == "exact" else 2
        assert wl_tower.check_mc_pow(a, k, a ** k) == []
        assert wl_tower.check_mc_pow(a, k, a ** k + 1)
    x = Bicomplex(Fraction(1, 2), 3, Fraction(-2, 3), 5)
    assert wl_tower.check_bc_inverse(x, x.inverse()) == []
    assert wl_tower.check_bc_inverse(x, x.inverse() + Bicomplex(0, 0, 0, Fraction(1, 9)))
    assert wl_tower.check_bc_decompose(x, tuple(x.decompose())) == []
    assert wl_tower.check_bc_decompose(x, tuple(x.decompose())[::-1])
    p = Biquaternion(RationalComplex(Fraction(1), Fraction(2)), 3, 0, RationalComplex(Fraction(0), Fraction(1)))
    q = Biquaternion(1, RationalComplex(Fraction(1, 3), Fraction(-1)), 2, 0)
    assert wl_tower.check_biq_mul(p, q, p * q) == []
    assert wl_tower.check_biq_mul(p, q, q * p)  # the product does not commute


def test_tower_specs_pass_and_zero_divisor_flag_is_checked():
    ops = wl_tower.operations(wl_tower.build(3), None)
    zd = [op for op in ops if op.kind == "mc3.zero_divisor.exact"]
    assert len(zd) == 2
    for op in zd:
        out = op.run()
        assert op.check(out) == []
        assert op.check(not out)


def test_tower_redraws_zero_divisors_for_inverse():
    # Seed 893 first draws an exact bicomplex zero divisor for ``inverse``.
    ops = wl_tower.operations(wl_tower.build(893), None)
    inverses = [op for op in ops if op.kind.startswith("bc.inverse")]
    assert len(inverses) == 4
    for op in inverses:
        assert op.check(op.run()) == []


# -- roots ----------------------------------------------------------------------


def test_roots_chosen_rejects_dropped_and_wrong_roots():
    rng = rng_for(4, "test")
    coeffs, chosen = wl_roots.chosen_polynomial(rng, 2, [3, 3])
    result = polysolve.solve(wl_roots._bc(coeffs))
    roots = wl_roots.root_coefficients(result)
    assert wl_roots.check_chosen(result.kind, roots, result.residuals, chosen) == []
    assert wl_roots.check_chosen(result.kind, roots[1:], result.residuals[1:], chosen)
    wrong = [_bump(roots[0], 0, Fraction(1, 3))] + roots[1:]
    assert wl_roots.check_chosen(result.kind, wrong, result.residuals, chosen)
    assert wl_roots.check_chosen(result.kind, [roots[0]] + roots[:-1], result.residuals, chosen)


def test_roots_numeric_rejects_perturbed_and_dropped_roots():
    rng = rng_for(5, "test")
    coeffs = wl_roots._random_monic(rng, 2, 4, "float")
    result = polysolve.solve(wl_roots._bc(coeffs))
    roots = wl_roots.root_coefficients(result)
    assert wl_roots.check_numeric(result.kind, roots, coeffs) == []
    assert wl_roots.check_numeric(result.kind, roots[:-1], coeffs)
    assert wl_roots.check_numeric(result.kind, [_bump(roots[0], 1, 1e-4)] + roots[1:], coeffs)
    mc = wl_roots._random_monic(rng, 3, 2, "gauss")
    result = polysolve.mc_solve(mc)
    roots = wl_roots.root_coefficients(result)
    assert wl_roots.check_numeric(result.kind, roots, mc) == []
    assert wl_roots.check_numeric(result.kind, [_bump(roots[3], 2, 1e-4)] + roots[1:], mc)


# -- surd -----------------------------------------------------------------------


def _report(eq):
    report = surd.classify_roots(surd.parse_surd(eq["text"]))
    return list(report.stock), [st.signs for st in report.congeners], [
        (r.value, r.assigned, r.ambiguous) for r in report.roots
    ]


def _radicands_nonnegative(eq, x) -> bool:
    return all(sum(float(c) * float(x) ** i for i, c in enumerate(r)) >= 0 for _, _, r in eq["terms"])


def _equation_with_assigned_root():
    """An equation, its report, and the index of a real root with
    nonnegative radicands that the program assigned to a congener."""
    rng = rng_for(6, "test")
    while True:
        eq = wl_surd.make_equation(rng, 2, 2)
        stock, signs, roots = _report(eq)
        for k, (value, assigned, _) in enumerate(roots):
            if assigned and _radicands_nonnegative(eq, value):
                return eq, stock, signs, roots, k


def test_surd_rejects_wrongly_assigned_congener():
    eq, stock, signs, roots, k = _equation_with_assigned_root()
    assert wl_surd.check_report(eq, stock, signs, roots) == []
    value, assigned, ambiguous = roots[k]
    others = tuple(j for j in range(len(signs)) if j not in assigned)
    wrong = roots[:k] + [(value, others[:1], ambiguous)] + roots[k + 1:]
    assert wl_surd.check_report(eq, stock, signs, wrong)
    unassigned = roots[:k] + [(value, (), False)] + roots[k + 1:]
    assert wl_surd.check_report(eq, stock, signs, unassigned)


def test_surd_rejects_dropped_root_and_wrong_stock():
    eq, stock, signs, roots, k = _equation_with_assigned_root()
    assert wl_surd.check_report(eq, stock, signs, roots[:k] + roots[k + 1:])
    assert wl_surd.check_report(eq, [c + 1 for c in stock], signs, roots)


# -- cli ------------------------------------------------------------------------


def test_cli_checks_reject_corrupted_payloads():
    specs = {kind: (argv, check) for kind, argv, check, _ in wl_cli.build(7)}
    _, corpus = specs["corpus"]
    assert corpus("ok   a.json\n15 cases, 0 failed\n") == []
    assert corpus("FAIL a.json: x\n15 cases, 1 failed\n")
    _, quad = specs["biq.quadratic.json"]
    b = Biquaternion(0, 1, 0, 0)
    c = Biquaternion(0, 0, 1, 0)
    from hypercomplex.biquaternion import solve_quadratic

    sols = solve_quadratic(b, c)
    payload = {"solutions": [
        {**s.to_json(), "type": "quaternion" if s.is_real_quaternion() else "biquaternion"} for s in sols
    ]}
    assert quad(json.dumps(payload)) == []
    payload["solutions"][0]["c1"]["re"] = "0.75"
    assert quad(json.dumps(payload))
    assert quad(json.dumps({"solutions": payload["solutions"][1:]}))
    assert wl_cli.check_table("quaternion", [["1", "a", "b", "c"], ["a", "-1", "c", "-b"],
                                             ["b", "-c", "-1", "a"], ["c", "b", "-a", "-1"]], False) == []
    assert wl_cli.check_table("quaternion", [["1", "a", "b", "c"], ["a", "-1", "c", "-b"],
                                             ["b", "c", "-1", "a"], ["c", "b", "-a", "-1"]], False)


def test_cli_poly_check_rejects_dropped_root():
    rng = rng_for(8, "test")
    coeffs, chosen = wl_roots.chosen_polynomial(rng, 2, [2, 2])
    result = polysolve.solve(wl_roots._bc(coeffs))
    payload = {
        "kind": result.kind,
        "roots": [r.to_json() for r in result.roots],
        "residuals": ["0"] * len(result.roots),
    }
    roots = [tuple(Fraction(r[k]) for k in "wxyz") for r in payload["roots"]]
    assert wl_roots.check_chosen("Finite", roots, [0] * len(roots), chosen) == []
    assert wl_roots.check_chosen("Finite", roots[:-1], [0] * 3, chosen)


def test_parse_text_forms():
    assert wl_cli.parse_bc_text("-1/2 + 7/3*i - 2*k") == [Fraction(-1, 2), Fraction(7, 3), 0, -2]
    assert wl_cli.parse_biq_text("(3,1/2) + (-1/3,2)*k") == [(3, Fraction(1, 2)), (0, 0), (0, 0), (Fraction(-1, 3), 2)]
    assert wl_cli.parse_bc_text(wl_cli.bc_text([Fraction(1, 3), -2, Fraction(5, 4), -1])) == [
        Fraction(1, 3), -2, Fraction(5, 4), -1
    ]
