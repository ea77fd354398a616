"""Cockle's four systems of quadruple algebra, derived rather than hardcoded.

A quadruple algebra lives on the basis (1, a, b, c) with the generator
squares a**2, b**2 in {+1, -1} prescribed and the single relation ab = c.
Everything else -- ba, ac, ca, bc, cb, c**2 -- is pinned down by demanding
associativity on all basis triples.  :func:`derive_table` searches the
full assignment space (each unknown ranges over the eight signed units)
and returns every consistent Cayley table, so the classical systems
emerge from their signatures instead of being typed in:

* quaternions       from a**2 = b**2 = -1 (anticommuting),
* tessarines        from a**2 = -1, b**2 = +1 (commutative),
* coquaternions     from a**2 = -1, b**2 = +1 (anticommuting),
* cotessarines      from a**2 = b**2 = +1 (commutative, all products +).

A system is "normal" when multiplication stays commutative (tessarines,
cotessarines) and "abnormal" otherwise.  The multiplicative norm form is
the determinant of the left-multiplication matrix; for quaternions it is
(w^2+x^2+y^2+z^2)^2 and for coquaternions (w^2+x^2-y^2-z^2)^2, whose
vanishing locus exhibits the split system's zero divisors.

A real number acts on a :class:`QuadElement` as a multiple of 1, the
identity of every derived table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

from .scalars import ComputationalError, Element, InvariantError, format_scalar, is_real_scalar

BASIS_NAMES = ("1", "a", "b", "c")

# A signed unit is (sign, index) with sign in {+1,-1} and index over BASIS_NAMES.
_SIGNED_UNITS = tuple(
    (sign, idx) for idx in range(4) for sign in (1, -1)
)

# The six products that a**2, b**2 and ab = c leave open, by name.
_SLOT_NAMES = {"ba": (2, 1), "ac": (1, 3), "ca": (3, 1), "bc": (2, 3), "cb": (3, 2), "cc": (3, 3)}
_UNKNOWN_SLOTS = tuple(_SLOT_NAMES.values())
_NONTRIVIAL_TRIPLES = tuple(itertools.product((1, 2, 3), repeat=3))


class TableMismatch(ComputationalError, ValueError):
    """Elements of different quadruple systems cannot be combined."""


@dataclass(frozen=True)
class QuadSignature:
    sq_a: int
    sq_b: int

    def __post_init__(self):
        if self.sq_a not in (1, -1) or self.sq_b not in (1, -1):
            raise ValueError("generator squares must be +1 or -1")


@dataclass(frozen=True)
class CayleyTable:
    """4x4 signed-unit product table over (1, a, b, c), row * column."""

    signature: QuadSignature
    entries: tuple  # 16 signed units, row-major
    is_mirror: bool = False

    def entry(self, i: int, j: int):
        return self.entries[4 * i + j]

    def mul_units(self, u, v):
        """Product of signed units through the table."""
        s1, i = u
        s2, j = v
        s, k = self.entry(i, j)
        return (s1 * s2 * s, k)

    def is_commutative(self) -> bool:
        return all(
            self.entry(i, j) == self.entry(j, i) for i in range(4) for j in range(4)
        )

    def is_associative(self) -> bool:
        """Brute-force check over all 64 basis triples."""
        units = [(1, i) for i in range(4)]
        for x in units:
            for y in units:
                xy = self.mul_units(x, y)
                for z in units:
                    if self.mul_units(xy, z) != self.mul_units(x, self.mul_units(y, z)):
                        return False
        return True

    def entry_str(self, i: int, j: int) -> str:
        sign, k = self.entry(i, j)
        return ("-" if sign < 0 else "") + BASIS_NAMES[k]

    def rows_str(self):
        return [[self.entry_str(i, j) for j in range(4)] for i in range(4)]

    def _sort_key(self):
        return tuple((k, s) for s, k in self.entries)


def is_normal(table: CayleyTable) -> bool:
    """Cockle's normality: multiplication stays commutative."""
    return table.is_commutative()


def derive_table(sig: QuadSignature) -> list[CayleyTable]:
    """All associative tables extending a**2=sq_a, b**2=sq_b, ab=+c.

    Exhausts the six unknown products (ba, ac, ca, bc, cb, c*c) over the
    eight signed units; partial assignments are discarded as soon as some
    fully-determined basis triple breaks associativity, which prunes the
    8**6 space without excluding any complete candidate.  Results are
    canonically ordered; tables reachable from an earlier result by a
    generator sign flip carry ``is_mirror=True``.
    """
    known = {}
    for j in range(4):
        known[(0, j)] = (1, j)
        known[(j, 0)] = (1, j)
    known[(1, 1)] = (sig.sq_a, 0)
    known[(2, 2)] = (sig.sq_b, 0)
    known[(1, 2)] = (1, 3)

    found = []

    def check(partial) -> bool:
        for i, j, k in _NONTRIVIAL_TRIPLES:
            ij = partial.get((i, j))
            jk = partial.get((j, k))
            if ij is None or jk is None:
                continue
            lhs = partial.get((ij[1], k))
            rhs = partial.get((i, jk[1]))
            if lhs is None or rhs is None:
                continue
            if (ij[0] * lhs[0], lhs[1]) != (jk[0] * rhs[0], rhs[1]):
                return False
        return True

    def extend(depth: int, partial):
        if depth == len(_UNKNOWN_SLOTS):
            entries = tuple(partial[(i, j)] for i in range(4) for j in range(4))
            table = CayleyTable(sig, entries)
            if not table.is_associative():
                raise InvariantError(f"derived table for {sig} is not associative")
            found.append(table)
            return
        slot = _UNKNOWN_SLOTS[depth]
        for value in _SIGNED_UNITS:
            partial[slot] = value
            if check(partial):
                extend(depth + 1, partial)
            del partial[slot]

    extend(0, dict(known))
    found.sort(key=CayleyTable._sort_key)
    return _flag_mirrors(found)


def _flag_mirrors(tables: list[CayleyTable]) -> list[CayleyTable]:
    seen = []
    out = []
    for table in tables:
        mirror = any(
            _flip_table(table, ea, eb) in seen
            for ea, eb in ((1, -1), (-1, 1), (-1, -1))
        )
        out.append(
            CayleyTable(table.signature, table.entries, is_mirror=mirror)
        )
        seen.append(table.entries)
    return out


def _flip_table(table: CayleyTable, ea: int, eb: int) -> tuple:
    """Entries after the basis automorphism a -> ea*a, b -> eb*b, c -> ea*eb*c."""
    f = (1, ea, eb, ea * eb)
    entries = []
    for i in range(4):
        for j in range(4):
            s, k = table.entry(i, j)
            entries.append((f[i] * f[j] * f[k] * s, k))
    return tuple(entries)


# Relations pinning each classical system inside its signature's table list:
# the unknown-slot products written as signed units.
_NAMED_SYSTEMS = {
    "quaternion": (
        QuadSignature(-1, -1),
        {"ba": (-1, 3), "ac": (-1, 2), "ca": (1, 2), "bc": (1, 1), "cb": (-1, 1), "cc": (-1, 0)},
    ),
    "tessarine": (
        QuadSignature(-1, 1),
        {"ba": (1, 3), "ac": (-1, 2), "ca": (-1, 2), "bc": (1, 1), "cb": (1, 1), "cc": (-1, 0)},
    ),
    "coquaternion": (
        QuadSignature(-1, 1),
        {"ba": (-1, 3), "ac": (-1, 2), "ca": (1, 2), "bc": (-1, 1), "cb": (1, 1), "cc": (1, 0)},
    ),
    "cotessarine": (
        QuadSignature(1, 1),
        {"ba": (1, 3), "ac": (1, 2), "ca": (1, 2), "bc": (1, 1), "cb": (1, 1), "cc": (1, 0)},
    ),
}

SYSTEM_NAMES = tuple(_NAMED_SYSTEMS)


@lru_cache(maxsize=None)
def named_table(name: str) -> CayleyTable:
    """Locate a classical system inside the tables derived from its signature."""
    try:
        sig, relations = _NAMED_SYSTEMS[name]
    except KeyError:
        raise ValueError(f"unknown system {name!r}; pick one of {SYSTEM_NAMES}") from None
    for table in derive_table(sig):
        if all(table.entry(*_SLOT_NAMES[slot]) == value for slot, value in relations.items()):
            return table
    raise InvariantError(f"derivation failed to reproduce the {name} table")


@dataclass(frozen=True)
class QuadElement(Element):
    """w + x*a + y*b + z*c over a fixed Cayley table."""

    w: object
    x: object
    y: object
    z: object
    table: CayleyTable = field(repr=False)

    def components(self):
        return (self.w, self.x, self.y, self.z)

    def _from_scalar(self, value):
        if is_real_scalar(value):
            return QuadElement(value, 0, 0, 0, table=self.table)
        return NotImplemented

    def _new(self, components):
        return QuadElement(*components, table=self.table)

    def _check(self, other):
        if other.table.entries != self.table.entries:
            raise TableMismatch("elements belong to different quadruple systems")

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = [0, 0, 0, 0]
        mine = self.components()
        theirs = other.components()
        for i in range(4):
            if not mine[i]:
                continue
            for j in range(4):
                if not theirs[j]:
                    continue
                sign, k = self.table.entry(i, j)
                out[k] = out[k] + sign * mine[i] * theirs[j]
        return QuadElement(*out, table=self.table)

    def left_mul_matrix(self):
        """4x4 matrix of left multiplication by self, columns = images of basis."""
        m = [[0] * 4 for _ in range(4)]
        mine = self.components()
        for j in range(4):
            for i in range(4):
                if not mine[i]:
                    continue
                sign, k = self.table.entry(i, j)
                m[k][j] = m[k][j] + sign * mine[i]
        return m

    def norm_form(self):
        """det of the left-multiplication matrix; multiplicative by construction."""
        return _det4(self.left_mul_matrix())

    def to_json(self) -> dict:
        return {name: format_scalar(v) for name, v in zip("wxyz", self.components())}


def _det4(m):
    """Exact 4x4 determinant by cofactor expansion (scalars stay rational)."""

    def det3(a):
        return (
            a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
        )

    total = 0
    sign = 1
    for col in range(4):
        minor = [[m[r][c] for c in range(4) if c != col] for r in range(1, 4)]
        total = total + sign * m[0][col] * det3(minor)
        sign = -sign
    return total
