import random
from fractions import Fraction

import pytest

from hypercomplex.bicomplex import Bicomplex
from hypercomplex.quadruple import (
    CayleyTable,
    QuadElement,
    QuadSignature,
    TableMismatch,
    derive_table,
    is_normal,
    named_table,
)
from hypercomplex.scalars import InvariantError

from oracles import det_gauss, table_is_associative


def elem(table, w, x, y, z):
    return QuadElement(Fraction(w), Fraction(x), Fraction(y), Fraction(z), table=table)


def relations(table):
    slots = {"ba": (2, 1), "ac": (1, 3), "ca": (3, 1), "bc": (2, 3), "cb": (3, 2), "cc": (3, 3)}
    return {name: table.entry_str(*slot) for name, slot in slots.items()}


class TestDerivation:
    @pytest.mark.parametrize(
        "sig", [(-1, -1), (-1, 1), (1, -1), (1, 1)], ids=["mm", "mp", "pm", "pp"]
    )
    def test_every_signature_yields_consistent_tables(self, sig):
        tables = derive_table(QuadSignature(*sig))
        assert tables, "derivation must find at least one table"
        for t in tables:
            # associativity re-checked by an oracle independent of the class
            assert table_is_associative(t.entry)
            # identity row and column
            assert all(t.entry(0, j) == (1, j) for j in range(4))
            assert all(t.entry(j, 0) == (1, j) for j in range(4))
            # pinned generator data
            assert t.entry(1, 1) == (sig[0], 0)
            assert t.entry(2, 2) == (sig[1], 0)
            assert t.entry(1, 2) == (1, 3)

    @pytest.mark.parametrize("sig", [(-1, -1), (-1, 1), (1, -1), (1, 1)])
    def test_each_signature_has_one_normal_and_one_abnormal_table(self, sig):
        tables = derive_table(QuadSignature(*sig))
        assert len(tables) == 2
        assert sorted(t.is_commutative() for t in tables) == [False, True]

    def test_quaternion_table_from_its_signature(self):
        # ji = -k, kj = -i, ik = -j alongside ij = k, jk = i, ki = j
        assert relations(named_table("quaternion")) == {
            "ba": "-c", "ac": "-b", "ca": "b", "bc": "a", "cb": "-a", "cc": "-1",
        }

    def test_tessarine_table_from_its_signature(self):
        # ij = k, jk = i, ki = -j with j^2 = +1: fully commutative
        t = named_table("tessarine")
        assert t.is_commutative()
        assert relations(t) == {
            "ba": "c", "ac": "-b", "ca": "-b", "bc": "a", "cb": "a", "cc": "-1",
        }

    def test_coquaternion_table_matches_the_multiply_through_derivation(self):
        # -b = ac, -bc = a, -c = ba, ca = b, a = cb
        assert relations(named_table("coquaternion")) == {
            "ba": "-c", "ac": "-b", "ca": "b", "bc": "-a", "cb": "a", "cc": "1",
        }

    def test_cotessarine_table_every_product_positive(self):
        t = named_table("cotessarine")
        assert t.is_commutative()
        assert relations(t) == {
            "ba": "c", "ac": "b", "ca": "b", "bc": "a", "cb": "a", "cc": "1",
        }

    def test_normality_flags(self):
        assert not is_normal(named_table("quaternion"))
        assert is_normal(named_table("tessarine"))
        assert not is_normal(named_table("coquaternion"))
        assert is_normal(named_table("cotessarine"))

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            named_table("octonion")

    def test_flipped_basis_stays_in_the_derived_set(self):
        # generator sign flips are automorphisms of the constraint set, so
        # the result list must be closed under them (mirrors, when distinct,
        # carry the flag)
        from hypercomplex.quadruple import _flip_table

        for sig in [(-1, -1), (-1, 1), (1, 1)]:
            tables = derive_table(QuadSignature(*sig))
            entry_sets = {t.entries for t in tables}
            for t in tables:
                for ea, eb in ((1, -1), (-1, 1), (-1, -1)):
                    assert _flip_table(t, ea, eb) in entry_sets

    def test_table_that_escapes_pruning_raises(self, monkeypatch):
        # With no triples to check, the search completes non-associative tables.
        monkeypatch.setattr("hypercomplex.quadruple._NONTRIVIAL_TRIPLES", ())
        with pytest.raises(InvariantError, match="not associative"):
            derive_table(QuadSignature(-1, -1))

    def test_named_system_missing_from_its_derived_tables_raises(self, monkeypatch):
        monkeypatch.setattr("hypercomplex.quadruple.derive_table", lambda sig: [])
        with pytest.raises(InvariantError, match="quaternion table"):
            named_table.__wrapped__("quaternion")  # uncached


class TestElements:
    def test_identity(self):
        for name in ("quaternion", "tessarine", "coquaternion", "cotessarine"):
            t = named_table(name)
            one = elem(t, 1, 0, 0, 0)
            v = elem(t, 3, -2, 5, 7)
            assert one * v == v
            assert v * one == v

    def test_quaternion_anticommutation(self):
        t = named_table("quaternion")
        a = elem(t, 0, 1, 0, 0)
        b = elem(t, 0, 0, 1, 0)
        c = elem(t, 0, 0, 0, 1)
        assert a * b == c
        assert b * a == elem(t, 0, 0, 0, -1)

    def test_tessarine_zero_divisors_live_at_the_plus_one_unit(self):
        # Cockle's (1 - j)(1 + j) = 0 with j**2 = +1: j is the generator b here
        t = named_table("tessarine")
        assert elem(t, 1, 0, -1, 0) * elem(t, 1, 0, 1, 0) == elem(t, 0, 0, 0, 0)
        # the commutative (-1,-1) table has c**2 = +1 instead
        segre = next(
            tab for tab in derive_table(QuadSignature(-1, -1)) if tab.is_commutative()
        )
        assert elem(segre, 1, 0, 0, -1) * elem(segre, 1, 0, 0, 1) == elem(
            segre, 0, 0, 0, 0
        )

    def test_mixing_tables_is_rejected(self):
        u = elem(named_table("quaternion"), 1, 0, 0, 0)
        v = elem(named_table("tessarine"), 1, 0, 0, 0)
        with pytest.raises(TableMismatch):
            u * v

    def test_tessarine_element_algebra_is_the_bicomplex_algebra(self):
        # exhibit the renaming a -> i, b -> k, c -> -h and check all products
        t = named_table("tessarine")
        images = {
            0: Bicomplex(1, 0, 0, 0),
            1: Bicomplex(0, 1, 0, 0),
            2: Bicomplex(0, 0, 0, 1),
            3: Bicomplex(0, 0, -1, 0),
        }
        for i in range(4):
            for j in range(4):
                sign, k = t.entry(i, j)
                assert images[i] * images[j] == sign * images[k]


class TestNormForm:
    def test_one_has_norm_one(self):
        for name in ("quaternion", "tessarine", "coquaternion", "cotessarine"):
            assert elem(named_table(name), 1, 0, 0, 0).norm_form() == 1

    def test_quaternion_norm_is_the_squared_sum_of_squares(self):
        rng = random.Random(101)
        t = named_table("quaternion")
        for _ in range(50):
            w, x, y, z = (Fraction(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(4))
            u = QuadElement(w, x, y, z, table=t)
            expected = (w * w + x * x + y * y + z * z) ** 2
            assert u.norm_form() == expected
            assert det_gauss(u.left_mul_matrix()) == expected

    def test_coquaternion_norm_is_the_squared_split_form(self):
        rng = random.Random(202)
        t = named_table("coquaternion")
        for _ in range(50):
            w, x, y, z = (Fraction(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(4))
            u = QuadElement(w, x, y, z, table=t)
            expected = (w * w + x * x - y * y - z * z) ** 2
            assert u.norm_form() == expected
            assert det_gauss(u.left_mul_matrix()) == expected

    @pytest.mark.parametrize(
        "name", ["quaternion", "tessarine", "coquaternion", "cotessarine"]
    )
    def test_multiplicative_on_200_random_rational_pairs(self, name):
        rng = random.Random(hash(name) & 0xFFFF)
        t = named_table(name)
        for _ in range(200):
            u = QuadElement(*(Fraction(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(4)), table=t)
            v = QuadElement(*(Fraction(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(4)), table=t)
            assert (u * v).norm_form() == u.norm_form() * v.norm_form()

    def test_coquaternion_zero_divisor(self):
        u = elem(named_table("coquaternion"), 1, 0, 1, 0)
        assert not u.is_zero()
        assert u.norm_form() == 0
