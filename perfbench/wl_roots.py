"""Workload ``roots``: ``polysolve.solve`` and ``polysolve.mc_solve``.

One round holds 100 operations (counts in ``BC_CHOSEN``, ``BC_RANDOM``,
``MC_CHOSEN`` and ``MC_RANDOM``):

* ``bc.chosen.d2`` .. ``bc.chosen.d7``: exact bicomplex polynomials whose
  two component polynomials have chosen distinct Gaussian-rational roots
  (p/q + i*r/q with |p|, |r| <= 4, q in 1..4) and chosen leading values, so
  every root is found by exact snapping and deflation; ``d3x2`` and
  ``d5x3`` have a zero-divisor leading coefficient (component degrees differ).
* ``bc.gauss.d2`` .. ``bc.gauss.d6``: random monic bicomplex polynomials with
  integer components in [-3, 3] (the numeric path).
* ``bc.float.d2`` .. ``bc.float.d10``: monic, float components in [-1, 1].
* ``bc.gauss.d10.fixed``: ten degree-10 monic polynomials with integer
  components in [-4, 4], drawn from ``FIXED_SEED`` and not from ``--seed``.
  Most of them raise ``NoConvergence`` today: ``complex_roots`` accepts a
  root only if |p(r)| <= 1e-10 * max(1, max|a_k|), an absolute bound that
  accurate roots of these polynomials miss.  They count as failed.  The
  same bound makes exact chosen-root polynomials of degree 10 fail on a few
  seeds (3 of seeds 500-699), so chosen roots stop at degree 7 (no failure
  in 1400 polynomials of seeds 500-699).
* ``mc*.chosen``: exact multicomplex polynomials with chosen roots at orders
  2 (degrees 2-4), 3 (degrees 2-3, two of degree 3) and 4 (degree 2, 256
  roots), and random
  monic degree-2 polynomials at order 3 (integer and float components) and
  order 2 (float).

Checks use the characters of ``oracle.py``: a chosen-root polynomial must
give exactly the Cartesian product of the chosen character values; any
other polynomial must give, per character, roots that match
``mpmath.polyroots`` of that character's component polynomial, with a
small backward error, and each combination of component roots as often
as the product of their multiplicities.
"""

from __future__ import annotations

import random

from common import Op, distinct_gaussian_rationals, gaussian_rational, rng_for
from oracle import backward_error, characters, element_from_characters, is_exact_value, poly_from_roots

from hypercomplex import Bicomplex, BicomplexPoly, Multicomplex, polysolve

FIXED_SEED = 20151122
FIXED_COUNT = 10
FIXED_RANGE = 4
# Operations per round.  The counts put one block of similar operations
# around each percentile rank, so that neither percentile falls on a gap
# between two kinds of operation: 31 exact degree-4 solves span the median;
# the 90th percentile falls among seven exact degree-7 solves and the four
# FIXED_SEED polynomials of about the same cost (40-50 ms on the machine of
# README.md), with five heavier operations above them.
# Component degrees "m" or "m x m'" (a zero-divisor leading coefficient).
BC_CHOSEN = (
    ("2", 2), ("3", 2), ("3x2", 2), ("4", 31), ("5", 2), ("5x3", 2),
    ("6", 2), ("7", 7),
)
BC_RANDOM = tuple(("float", d, 2) for d in range(2, 11)) + (
    ("gauss", 2, 2), ("gauss", 3, 2), ("gauss", 4, 2), ("gauss", 5, 2), ("gauss", 6, 1),
)
# (order, degree, count); order 4 at degree 2 has 256 roots
MC_CHOSEN = ((2, 2, 1), (2, 3, 1), (2, 4, 1), (3, 2, 1), (3, 3, 2), (4, 2, 1))
MC_RANDOM = ((3, "gauss", 2), (3, "float", 2), (2, "float", 2))
MATCH_RTOL = 1e-7
BACKWARD_ERROR_MAX = 1e-11


def _lead(rng) -> tuple:
    z = (0, 0)
    while z == (0, 0):
        z = gaussian_rational(rng, num=3, dens=(1, 2))
    return z


def chosen_polynomial(rng, order: int, degrees: list) -> tuple:
    """Coefficients (Multicomplex order >= 2) with chosen character roots."""
    roots = [distinct_gaussian_rationals(rng, d) for d in degrees]
    polys = []
    top = max(degrees)
    for rs in roots:
        p = poly_from_roots(rs, _lead(rng))
        polys.append(p + [(0, 0)] * (top + 1 - len(p)))
    coeffs = [element_from_characters([p[k] for p in polys]) for k in range(top + 1)]
    return [Multicomplex(order, tuple(c)) for c in coeffs], roots


def _random_monic(rng, order: int, degree: int, kind: str, bound: int = 3) -> list:
    def scalar():
        return rng.randint(-bound, bound) if kind == "gauss" else rng.uniform(-1.0, 1.0)

    coeffs = [Multicomplex(order, tuple(scalar() for _ in range(1 << order))) for _ in range(degree)]
    return coeffs + [Multicomplex.scalar(order, 1)]


def _bc(coeffs) -> BicomplexPoly:
    return BicomplexPoly(tuple(Bicomplex(*c.coeffs) for c in coeffs))


def build(seed: int) -> list:
    """Specs: (name, 'bc' | 'mc', coefficients, chosen roots or None)."""
    rng = rng_for(seed, "roots")
    specs = []
    for name, count in BC_CHOSEN:
        degrees = [int(d) for d in name.split("x")]
        for _ in range(count):
            coeffs, roots = chosen_polynomial(rng, 2, degrees if len(degrees) == 2 else degrees * 2)
            specs.append((f"bc.chosen.d{name}", "bc", coeffs, roots))
    for kind, degree, count in BC_RANDOM:
        for _ in range(count):
            specs.append((f"bc.{kind}.d{degree}", "bc", _random_monic(rng, 2, degree, kind), None))
    fixed = random.Random(FIXED_SEED)
    for _ in range(FIXED_COUNT):
        specs.append(("bc.gauss.d10.fixed", "bc", _random_monic(fixed, 2, 10, "gauss", FIXED_RANGE), None))
    for order, degree, count in MC_CHOSEN:
        for _ in range(count):
            coeffs, roots = chosen_polynomial(rng, order, [degree] * (1 << (order - 1)))
            specs.append((f"mc{order}.chosen.d{degree}", "mc", coeffs, roots))
    for order, kind, count in MC_RANDOM:
        for _ in range(count):
            specs.append((f"mc{order}.{kind}.d2", "mc", _random_monic(rng, order, 2, kind), None))
    return specs


# -- checks -------------------------------------------------------------------


def root_coefficients(result) -> list:
    """The coefficient tuple of every root in a ``RootSet``."""
    return [r.components() if isinstance(r, Bicomplex) else r.coeffs for r in result.roots]


def _component_polys(coeffs) -> list:
    """Per character, the ascending coefficients of its component polynomial."""
    per_coeff = [characters(c.coeffs) for c in coeffs]
    polys = []
    for k in range(len(per_coeff[0])):
        p = [vals[k] for vals in per_coeff]
        while p and p[-1] == (0, 0):
            p.pop()
        polys.append(p)
    return polys


def check_chosen(kind: str, roots: list, residuals, chosen) -> list:
    """``roots`` are coefficient tuples; ``chosen[k]`` the roots chosen for
    character k."""
    if kind != "Finite":
        return [f"kind {kind}, expected Finite"]
    want = 1
    for rs in chosen:
        want *= len(rs)
    errors = []
    if len(roots) != want:
        errors.append(f"{len(roots)} roots, expected {want}")
    seen = set()
    for root in roots:
        chars = characters(root)
        if not all(is_exact_value(v) for z in chars for v in z):
            errors.append(f"root {root} is not exact")
            break
        key = tuple(chars)
        if any(z not in rs for z, rs in zip(chars, chosen)):
            errors.append(f"root {root} has characters {key} outside the chosen sets")
            break
        if key in seen:
            errors.append(f"root {root} returned twice")
            break
        seen.add(key)
    if any(r != 0 for r in residuals):
        errors.append("an exact root has a nonzero residual")
    return errors


def _mp_roots(poly) -> list:
    import mpmath

    with mpmath.workdps(40):
        coeffs = [mpmath.mpc(mpmath.mpf(a[0]), mpmath.mpf(a[1])) for a in reversed(poly)]
        roots = mpmath.polyroots(coeffs, maxsteps=500, extraprec=400)
        return [complex(r) for r in roots]


def _clusters(roots: list) -> list:
    """[value, multiplicity] of the distinct values in a root list."""
    out: list = []
    for r in roots:
        for c in out:
            if abs(c[0] - r) <= MATCH_RTOL * (1 + abs(r)):
                c[1] += 1
                break
        else:
            out.append([r, 1])
    return out


def check_numeric(kind: str, roots: list, coeffs) -> list:
    """``roots`` are coefficient tuples; ``coeffs`` the polynomial's
    ``Multicomplex`` coefficients.  Every combination of distinct component
    roots must come back as often as the product of their multiplicities."""
    if kind != "Finite":
        return [f"kind {kind}, expected Finite"]
    polys = _component_polys(coeffs)
    references = [_clusters(_mp_roots(p)) for p in polys]
    errors = []
    found: dict = {}
    for root in roots:
        key = []
        for z, refs, poly in zip(characters(root), references, polys):
            zc = complex(float(z[0]), float(z[1]))
            j = min(range(len(refs)), key=lambda i: abs(refs[i][0] - zc))
            if abs(refs[j][0] - zc) > MATCH_RTOL * (1 + abs(refs[j][0])):
                return [f"root {root}: component {zc} matches no mpmath root"]
            if backward_error(poly, z) > BACKWARD_ERROR_MAX:
                return [f"root {root}: backward error {backward_error(poly, z):.2e}"]
            key.append(j)
        found[tuple(key)] = found.get(tuple(key), 0) + 1
    want = {(): 1}
    for refs in references:
        want = {key + (j,): n * refs[j][1] for key, n in want.items() for j in range(len(refs))}
    if found != want:
        errors.append(
            f"{len(roots)} roots, expected {sum(want.values())}: combinations of "
            "component roots missing or repeated"
        )
    return errors


def operations(specs, ctx) -> list:
    ops = []
    for name, algebra, coeffs, chosen in specs:
        if algebra == "bc":
            poly = _bc(coeffs)
            run = lambda p=poly: polysolve.solve(p)  # noqa: E731
        else:
            run = lambda cs=coeffs: polysolve.mc_solve(cs)  # noqa: E731
        if chosen is not None:
            check = lambda out, ch=chosen: check_chosen(out.kind, root_coefficients(out), out.residuals, ch)  # noqa: E731
        else:
            check = lambda out, cs=coeffs: check_numeric(out.kind, root_coefficients(out), cs)  # noqa: E731
        ops.append(Op(name, run, check))
    return ops
