"""Hamilton biquaternions: quaternions whose scalar coefficients are complex.

An element is c0 + c1*i + c2*j + c3*k with complex scalars c_m = a_m + w*b_m,
where the scalar imaginary w commutes with i, j, k and squares to -1 (so the
element is q' + w*q'' for real quaternions q', q'').  The quaternion relations
i**2 = j**2 = k**2 = -1, ij = k = -ji, jk = i, ki = j stay in force.

The algebra is isomorphic to all 2x2 complex matrices through the fixed
representation

    rho(i) = [[I, 0], [0, -I]]   rho(j) = [[0, 1], [-1, 0]]
    rho(k) = [[0, I], [I, 0]]    rho(w) = I * Identity      (I = sqrt(-1))

under which det(rho(q)) = c0^2 + c1^2 + c2^2 + c3^2.  Nullifiers -- nonzero
elements whose product with some nonzero element vanishes, e.g.
(k + w)(k - w) = k**2 + 1 = 0 -- are exactly the elements with vanishing
determinant.

A real or complex number acts as the element c0; ``is_nullifier`` raises
``ZeroInput`` at 0, as every zero-divisor test here does.

Elements complanar with i (c2 = c3 = 0) form a commutative subalgebra
isomorphic to the bicomplex numbers via w -> h, i -> i.

`solve_quadratic` finds the isolated solutions of q**2 = q*b + c by solvent
enumeration: transpose rho to put coefficients on the left, build the 4x4
block companion of L(t) = t**2*I - t*rho(b)^T - rho(c)^T, and synthesize one
solvent from every pair of eigenvectors with independent top halves.  A
repeated companion eigenvalue means the solution set is not a finite list of
isolated points (e.g. q**2 = -1 has a sphere of solutions), and the solver
raises DegenerateSpectrum instead of guessing representatives.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .bicomplex import Bicomplex
from .scalars import (
    HALF,
    NULLIFIC_RTOL,
    SOLVE_RESIDUAL_RTOL,
    ComputationalError,
    Element,
    RationalComplex,
    ZeroInput,
    format_scalar,
    is_exact,
    make_complex,
    parse_scalar,
    scan_terms,
    times_i,
)

DEDUP_RTOL = 1e-7
EIGEN_SEPARATION_RTOL = 1e-8
REAL_PART_RTOL = 1e-9


class NotComplanar(ComputationalError, ValueError):
    """Element has j or k components, so it lies outside the i-plane."""


class DegenerateSpectrum(ComputationalError, RuntimeError):
    """Repeated companion eigenvalues: solutions are not isolated points."""


def _coerce_component(value):
    if isinstance(value, (RationalComplex, complex)):
        return value
    if is_exact(value):
        return RationalComplex.coerce(value)
    if isinstance(value, float):
        return complex(value)
    raise TypeError(f"cannot use {value!r} as a biquaternion component")


@dataclass(frozen=True)
class Biquaternion(Element):
    """c0 + c1*i + c2*j + c3*k with complex scalar components."""

    c0: object = 0
    c1: object = 0
    c2: object = 0
    c3: object = 0

    def __post_init__(self):
        for name in ("c0", "c1", "c2", "c3"):
            object.__setattr__(self, name, _coerce_component(getattr(self, name)))

    def components(self):
        return (self.c0, self.c1, self.c2, self.c3)

    def _from_scalar(self, value):
        """A real or complex scalar (w is the scalar imaginary) as an element."""
        try:
            return Biquaternion(value)
        except TypeError:
            return NotImplemented

    def _new(self, components):
        return Biquaternion(*components)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a0, a1, a2, a3 = self.components()
        b0, b1, b2, b3 = other.components()
        return Biquaternion(
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 + a2 * b0 + a3 * b1 - a1 * b3,
            a0 * b3 + a3 * b0 + a1 * b2 - a2 * b1,
        )

    # -- Hamilton's q' + w*q'' form ---------------------------------------

    def real_part(self):
        """q' as component 4-tuple (real parts)."""
        return tuple(c.real for c in self.components())

    def imag_part(self):
        """q'' as component 4-tuple (w-parts)."""
        return tuple(c.imag for c in self.components())

    def is_real_quaternion(self) -> bool:
        """True iff every w-part is within ``REAL_PART_RTOL * (1 + norm)``.

        Where the norm leaves the float range on finite components, the test
        is made on the element scaled as in :meth:`is_nullifier`: both sides
        are homogeneous of degree 1 there.
        """
        scale = 1.0 + self.norm()
        if scale == math.inf:
            scaled = self._scaled()
            if scaled is not None:
                return scaled.is_real_quaternion()
        return all(abs(float(v)) <= REAL_PART_RTOL * scale for v in self.imag_part())

    def norm(self) -> float:
        """Euclidean size of the eight real coefficients.  A sum of squares
        that overflows is taken again by ``math.hypot``, which scales, so a
        finite element has a finite norm; every other result keeps the bits
        of the plain sum."""
        values = [complex(c) for c in self.components()]
        try:
            norm = math.sqrt(sum(abs(z) ** 2 for z in values))
        except OverflowError:
            norm = math.inf
        if norm == math.inf:
            return math.hypot(*(x for z in values for x in (z.real, z.imag)))
        return norm

    # -- 2x2 matrix representation -----------------------------------------

    def to_matrix(self):
        """rho(self) as a 2x2 nested tuple; exact when components are exact."""
        c0, c1, c2, c3 = self.components()
        return (
            (c0 + times_i(c1), c2 + times_i(c3)),
            (-c2 + times_i(c3), c0 - times_i(c1)),
        )

    @staticmethod
    def from_matrix(m) -> "Biquaternion":
        """Inverse of :meth:`to_matrix` (rho is onto all 2x2 matrices)."""
        (m00, m01), (m10, m11) = m
        return Biquaternion(
            (m00 + m11) * HALF,
            -times_i((m00 - m11) * HALF),
            (m01 - m10) * HALF,
            -times_i((m01 + m10) * HALF),
        )

    def det(self):
        """det(rho(self)) = c0^2 + c1^2 + c2^2 + c3^2."""
        c0, c1, c2, c3 = self.components()
        return c0 * c0 + c1 * c1 + c2 * c2 + c3 * c3

    def is_nullifier(self) -> bool:
        """True iff self is a zero divisor: det vanishes, exactly on exact
        components, else within ``NULLIFIC_RTOL * (1 + norm)**2``.

        Where det or that bound leaves the float range on finite components,
        the test is made on the element scaled by a power of two to a largest
        coefficient near 2**500.  det is homogeneous of degree 2 and there
        1 + norm rounds to norm, so both sides scale alike and the test keeps
        its meaning.
        """
        if self.is_zero():
            raise ZeroInput("nullifier test is undefined at zero")
        d = self.det()
        if self.is_exact():
            return not d
        d = complex(d)
        try:
            size, bound = abs(d), NULLIFIC_RTOL * (1.0 + self.norm()) ** 2
        except OverflowError:
            size = bound = math.inf
        if not (math.isfinite(size) and math.isfinite(bound)):
            scaled = self._scaled()
            if scaled is not None:
                return scaled.is_nullifier()
        return size <= bound

    def _scaled(self):
        """self times the power of two that brings its largest real
        coefficient near 2**500, or None when a coefficient is not finite."""
        values = [complex(c) for c in self.components()]
        parts = [abs(x) for z in values for x in (z.real, z.imag)]
        if not all(map(math.isfinite, parts)):
            return None
        scale = math.ldexp(1.0, 500 - math.frexp(max(parts))[1])
        return Biquaternion(*(z * scale for z in values))

    # -- bicomplex bridge ----------------------------------------------------

    def complanar_to_bicomplex(self) -> Bicomplex:
        """Map c0 + c1*i with w -> h onto the bicomplex algebra."""
        if bool(self.c2) or bool(self.c3):
            raise NotComplanar("element has j/k components")
        return Bicomplex(self.c0.real, self.c1.real, self.c0.imag, self.c1.imag)

    @staticmethod
    def from_bicomplex(a: Bicomplex) -> "Biquaternion":
        return Biquaternion(make_complex(a.w, a.y), make_complex(a.x, a.z), 0, 0)

    # -- text form ------------------------------------------------------------

    def __str__(self):
        parts = []
        for c, unit in zip(self.components(), ("", "i", "j", "k")):
            if not bool(c):
                continue
            body = f"({format_scalar(c.real)},{format_scalar(c.imag)})"
            parts.append(body if not unit else f"{body}*{unit}")
        return " + ".join(parts) if parts else "(0,0)"

    def __repr__(self):
        return f"Biquaternion({self.c0!r}, {self.c1!r}, {self.c2!r}, {self.c3!r})"

    @staticmethod
    def parse(text: str) -> "Biquaternion":
        comps = {"": 0, "i": 0, "j": 0, "k": 0}
        for sign, m in scan_terms(text, _BQ_TERM_RE):
            plain, unit = m.group("plain"), m.group("unit") or ""
            parts = (plain, "0") if plain is not None else (m.group("re"), m.group("im"))
            value = make_complex(*map(parse_scalar, parts))
            comps[unit] = comps[unit] + (-value if sign == "-" else value)
        return Biquaternion(comps[""], comps["i"], comps["j"], comps["k"])

    def to_json(self) -> dict:
        out = {}
        for name, c in zip(("c0", "c1", "c2", "c3"), self.components()):
            out[name] = {"re": format_scalar(c.real), "im": format_scalar(c.imag)}
        return out


_NUM = r"-?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?(?:/\d+)?"
_BQ_TERM_RE = re.compile(
    rf"""\s*(?P<sign>[+-])?\s*
        (?:
            \(\s*(?P<re>{_NUM})\s*,\s*(?P<im>{_NUM})\s*\)
          | (?P<plain>{_NUM})
        )
        (?:\s*\*\s*(?P<unit>[ijk]))?\s*""",
    re.VERBOSE,
)


ZERO = Biquaternion(0, 0, 0, 0)
ONE = Biquaternion(1, 0, 0, 0)
I = Biquaternion(0, 1, 0, 0)
J = Biquaternion(0, 0, 1, 0)
K = Biquaternion(0, 0, 0, 1)
OMEGA = Biquaternion(RationalComplex(Fraction(0), Fraction(1)), 0, 0, 0)


# ---------------------------------------------------------------------------
# quadratic equations q**2 = q*b + c


def solve_quadratic(b: Biquaternion, c: Biquaternion) -> list[Biquaternion]:
    """All isolated solutions of q**2 = q*b + c, deduplicated.

    Raises DegenerateSpectrum when the block companion matrix has a repeated
    eigenvalue, in which case the solution set contains non-isolated points
    and no finite enumeration exists.
    """
    import numpy as np  # loaded on first use: ``import hypercomplex`` stays numpy-free

    bt, ct = (
        np.array([[complex(v) for v in row] for row in q.to_matrix()], dtype=complex).T
        for q in (b, c)
    )
    companion = np.block(
        [[np.zeros((2, 2), dtype=complex), np.eye(2, dtype=complex)], [ct, bt]]
    )
    eigvals, eigvecs = np.linalg.eig(companion)

    lam_scale = max(1.0, max(abs(v) for v in eigvals))
    for p, q in itertools.combinations(range(4), 2):
        if abs(eigvals[p] - eigvals[q]) <= EIGEN_SEPARATION_RTOL * lam_scale:
            raise DegenerateSpectrum(
                "repeated companion eigenvalue "
                f"{eigvals[p]:.6g}: solutions are not isolated"
            )

    tol = SOLVE_RESIDUAL_RTOL * (1.0 + b.norm() + c.norm())
    solutions: list[Biquaternion] = []
    for p, q in itertools.combinations(range(4), 2):
        v = np.column_stack([eigvecs[:2, p], eigvecs[:2, q]])
        if abs(np.linalg.det(v)) <= 1e-10:
            continue
        y = v @ np.diag([eigvals[p], eigvals[q]]) @ np.linalg.inv(v)
        candidate = Biquaternion.from_matrix(tuple(map(tuple, y.T)))
        residual = (candidate * candidate - candidate * b - c).norm()
        if residual <= tol:
            solutions.append(candidate)

    return _dedup(solutions)


def _dedup(solutions: list[Biquaternion]) -> list[Biquaternion]:
    scale = max([1.0] + [s.norm() for s in solutions])
    kept: list[Biquaternion] = []
    for s in solutions:
        if all(_distance(s, t) > DEDUP_RTOL * scale for t in kept):
            kept.append(s)
    kept.sort(key=lambda s: tuple(
        (round(v.real, 9), round(v.imag, 9)) for v in (complex(x) for x in s.components())
    ))
    return kept


def _distance(a: Biquaternion, b: Biquaternion) -> float:
    return (a - b).norm()
