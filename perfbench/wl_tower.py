"""Workload ``tower``: element arithmetic of the algebras, nothing else.

Per scalar backend (exact ``Fraction``, ``float``) and per multicomplex
order n = 2..8: two products, two splits, two unsplits, two zero-divisor
tests (every other one built with a vanishing character, the rest generic)
and one power (cube up to order 5, square above), plus the ``EXTRA``
operations.  Per backend also two each of ``Bicomplex`` product,
``decompose`` and ``inverse`` and two ``Biquaternion`` products.  Coefficients are dense: exact ones are p/q with 1 <= |p|, q <= 9,
floats are uniform in [-1, 1].

Checks go through the characters of ``oracle.py`` (ring homomorphisms onto
C, computed by the benchmark) and the 2x2 matrix form of biquaternions.
"""

from __future__ import annotations

import math

from common import Op, rng_for, small_fraction
from oracle import (
    biq_matrix,
    characters,
    close,
    cmul,
    cpow,
    element_from_characters,
    is_exact_value,
    mat_mul,
    mat_norm,
    mat_sub,
    split_order_characters,
)

from hypercomplex import Biquaternion, Bicomplex, Multicomplex, RationalComplex

ORDERS = range(2, 9)
BACKENDS = ("exact", "float")
PER_ORDER = (("mul", 2), ("split", 2), ("unsplit", 2), ("zero_divisor", 2), ("pow", 1))
# Extra operations that put a block of similar operations around each
# percentile rank, so that neither falls on a gap between two kinds of
# operation: float order-6 products (about 0.8 ms on the machine of
# README.md) span the median; exact order-8 splits and zero-divisor tests,
# with the float order-8 products and unsplits (11-15 ms), span the 90th
# percentile.
EXTRA = {(6, "float", "mul"): 30, (8, "exact", "split"): 2, (8, "exact", "zero_divisor"): 2}
SMALL_OPS = 2
FLOAT_RTOL = 1e-12


def _scalar(rng, backend):
    return small_fraction(rng) if backend == "exact" else rng.uniform(-1.0, 1.0)


def _pair(rng, backend):
    return (_scalar(rng, backend), _scalar(rng, backend))


def _program_complex(pair, backend):
    if backend == "exact":
        return RationalComplex(*pair)
    return complex(*pair)


def _dense(rng, order, backend):
    return Multicomplex(order, tuple(_scalar(rng, backend) for _ in range(1 << order)))


def build(seed: int) -> list:
    """Operation specs: (kind, backend, payload)."""
    rng = rng_for(seed, "tower")
    specs = []
    for backend in BACKENDS:
        for n in ORDERS:
            for kind, count in PER_ORDER:
                for j in range(count + EXTRA.get((n, backend, kind), 0)):
                    if kind == "mul":
                        payload = (_dense(rng, n, backend), _dense(rng, n, backend))
                    elif kind == "split":
                        payload = _dense(rng, n, backend)
                    elif kind == "unsplit":
                        payload = [_pair(rng, backend) for _ in range(1 << (n - 1))]
                    elif kind == "zero_divisor":
                        if j % 2 == 0:  # one character forced to zero
                            values = [_pair(rng, backend) for _ in range(1 << (n - 1))]
                            values[rng.randrange(len(values))] = (0 * values[0][0], 0 * values[0][0])
                            coeffs = element_from_characters(values)
                            payload = (Multicomplex(n, tuple(coeffs)), True)
                        else:
                            payload = (_invertible(lambda: _dense(rng, n, backend)), False)
                    else:
                        payload = (_dense(rng, n, backend), 3 if n <= 5 else 2)
                    specs.append((f"mc{n}.{kind}", backend, payload))
        for _ in range(SMALL_OPS):
            specs.append(("bc.mul", backend, (_bc(rng, backend), _bc(rng, backend))))
        for _ in range(SMALL_OPS):
            specs.append(("bc.decompose", backend, _bc(rng, backend)))
        for _ in range(SMALL_OPS):
            specs.append(("bc.inverse", backend, _invertible(lambda: _bc(rng, backend))))
        for _ in range(SMALL_OPS):
            specs.append(("biq.mul", backend, (_biq(rng, backend), _biq(rng, backend))))
    return specs


def _invertible(draw):
    """Draw again while the element is a zero divisor (a character
    vanishes): about one exact order-2 draw in 900, which would
    make ``inverse`` raise and a "generic" zero-divisor test expect the wrong
    answer on some seeds only."""
    while True:
        a = draw()
        coeffs = a.components() if isinstance(a, Bicomplex) else a.coeffs
        if all(z != (0, 0) for z in characters(coeffs)):
            return a


def _bc(rng, backend):
    return Bicomplex(*(_scalar(rng, backend) for _ in range(4)))


def _biq(rng, backend):
    return Biquaternion(*(_program_complex(_pair(rng, backend), backend) for _ in range(4)))


# -- checks -------------------------------------------------------------------


def _pairs(values) -> list:
    return [(z.real, z.imag) for z in values]


def _tol(order: int, *norms) -> float:
    return FLOAT_RTOL * (1 << order) * math.prod(1.0 + n for n in norms)


def _l1(coeffs) -> float:
    return sum(abs(float(c)) for c in coeffs)


def _compare(got: list, want: list, tol: float, what: str) -> list:
    if len(got) != len(want):
        return [f"{what}: {len(got)} values, expected {len(want)}"]
    for k, (g, w) in enumerate(zip(got, want)):
        if not close(g, w, tol):
            return [f"{what}: character {k} is {g}, expected {w}"]
    return []


def _exactness(values, backend) -> list:
    if backend == "exact" and not all(is_exact_value(v) for v in values):
        return ["exact inputs gave an inexact result"]
    return []


def check_mc_mul(a, b, out) -> list:
    n = a.order
    errors = _exactness(out.coeffs, "exact" if a.is_exact() else "float")
    want = [cmul(x, y) for x, y in zip(characters(a.coeffs), characters(b.coeffs))]
    return errors + _compare(characters(out.coeffs), want, _tol(n, _l1(a.coeffs), _l1(b.coeffs)), "chi(a*b) != chi(a)*chi(b)")


def check_mc_split(a, out) -> list:
    n = a.order
    errors = _compare(_pairs(out), split_order_characters(a.coeffs, n), _tol(n, _l1(a.coeffs)), "split")
    if a.is_exact() and Multicomplex.unsplit(out, n) != a:
        errors.append("unsplit(split(a)) != a on the exact backend")
    return errors


def check_mc_unsplit(values, order, out) -> list:
    scale = sum(abs(complex(*map(float, v))) for v in values)
    return _compare(split_order_characters(out.coeffs, order), list(values), _tol(order, scale), "split(unsplit(v)) != v")


def check_mc_pow(a, k, out) -> list:
    want = [cpow(x, k) for x in characters(a.coeffs)]
    return _compare(characters(out.coeffs), want, _tol(a.order, *([_l1(a.coeffs)] * k)), f"chi(a**{k}) != chi(a)**{k}")


def check_bc_mul(a, b, out) -> list:
    want = [cmul(x, y) for x, y in zip(characters(a.components()), characters(b.components()))]
    return _compare(characters(out.components()), want, _tol(2, _l1(a.components()), _l1(b.components())), "chi(a*b)")


def check_bc_decompose(a, out) -> list:
    return _compare(_pairs(out), split_order_characters(a.components(), 2), _tol(2, _l1(a.components())), "decompose")


def check_bc_inverse(a, out) -> list:
    got = [cmul(x, y) for x, y in zip(characters(out.components()), characters(a.components()))]
    return _compare(got, [(1, 0), (1, 0)], 1e-9, "chi(a.inverse()*a) != 1")


def check_biq_mul(a, b, out) -> list:
    def mat(q):
        return biq_matrix(_pairs(q.components()))

    diff = mat_sub(mat(out), mat_mul(mat(a), mat(b)))
    if a.is_exact() and b.is_exact():
        ok = all(v == 0 for row in diff for z in row for v in z)
    else:
        ok = mat_norm(diff) <= 1e-12 * (1 + a.norm()) * (1 + b.norm())
    return [] if ok else ["rho(a*b) != rho(a)*rho(b)"]


def operations(specs, ctx) -> list:
    ops = []
    for kind, backend, payload in specs:
        name = f"{kind}.{backend}"
        family, op = kind.split(".")
        if family.startswith("mc"):
            order = int(family[2:])
            if op == "mul":
                a, b = payload
                ops.append(Op(name, lambda a=a, b=b: a * b, lambda out, a=a, b=b: check_mc_mul(a, b, out)))
            elif op == "split":
                a = payload
                ops.append(Op(name, lambda a=a: a.split(), lambda out, a=a: check_mc_split(a, out)))
            elif op == "unsplit":
                values = [_program_complex(v, backend) for v in payload]
                ops.append(Op(
                    name,
                    lambda v=values, n=order: Multicomplex.unsplit(v, n),
                    lambda out, v=payload, n=order: check_mc_unsplit(v, n, out),
                ))
            elif op == "zero_divisor":
                a, expected = payload
                ops.append(Op(
                    name, lambda a=a: a.is_zero_divisor(),
                    lambda out, e=expected: [] if out is e else [f"is_zero_divisor gave {out}, expected {e}"],
                ))
            else:
                a, k = payload
                ops.append(Op(name, lambda a=a, k=k: a ** k, lambda out, a=a, k=k: check_mc_pow(a, k, out)))
        elif kind == "bc.mul":
            a, b = payload
            ops.append(Op(name, lambda a=a, b=b: a * b, lambda out, a=a, b=b: check_bc_mul(a, b, out)))
        elif kind == "bc.decompose":
            ops.append(Op(name, lambda a=payload: a.decompose(), lambda out, a=payload: check_bc_decompose(a, out)))
        elif kind == "bc.inverse":
            ops.append(Op(name, lambda a=payload: a.inverse(), lambda out, a=payload: check_bc_inverse(a, out)))
        else:
            a, b = payload
            ops.append(Op(name, lambda a=a, b=b: a * b, lambda out, a=a, b=b: check_biq_mul(a, b, out)))
    return ops
