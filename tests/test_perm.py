"""Permutations and dihedral factors, and the permutation algebra of the
test references: cycle notation, composition, inverse and conjugation."""

import pytest
from hypothesis import given, strategies as st

from polykh.perm import PermError, Permutation, DihedralFactor

from conftest import (compose, conjugate, from_cycles, identity, inverse,
                      parse_cycles, reflection_xi, transposition)


def rand_perm(n):
    return st.permutations(range(1, n + 1)).map(Permutation)


class TestBasics:
    def test_identity(self):
        e = identity(5)
        assert all(e(x) == x for x in range(1, 6))
        assert e.cycle_str() == "()"

    def test_not_bijection_rejected(self):
        with pytest.raises(PermError):
            Permutation((1, 1, 3))

    def test_transposition(self):
        t = transposition(5, 2, 4)
        assert t(2) == 4 and t(4) == 2 and t(1) == 1
        assert t == inverse(t)

    def test_from_cycles_duplicate_rejected(self):
        with pytest.raises(PermError):
            from_cycles(4, [(1, 2), (2, 3)])


class TestComposition:
    def test_applies_right_factor_first(self):
        # compose(a, b)(x) = a(b(x))
        nine = from_cycles(9, [tuple(range(1, 10))])
        t = transposition(9, 4, 9)
        assert compose(t, nine) == parse_cycles("(1,2,3,9)(4,5,6,7,8)", 9)

    def test_variadic_right_to_left(self):
        a = from_cycles(4, [(1, 2)])
        b = from_cycles(4, [(2, 3)])
        c = from_cycles(4, [(3, 4)])
        assert compose(a, b, c) == compose(a, compose(b, c))

    def test_size_mismatch(self):
        with pytest.raises(PermError):
            compose(identity(3), identity(4))

    def test_conjugation_relabels_cycles(self):
        a = parse_cycles("(1,2,3)", 3)
        g = parse_cycles("(1,2)", 3)
        assert conjugate(a, g) == parse_cycles("(1,3,2)", 3)

    @given(rand_perm(7), rand_perm(7))
    def test_inverse_cancels(self, a, b):
        e = identity(7)
        assert compose(a, inverse(a)) == e
        assert compose(inverse(a), a) == e
        assert inverse(compose(a, b)) == compose(inverse(b), inverse(a))

    @given(rand_perm(6), rand_perm(6))
    def test_conjugate_preserves_cycle_type(self, a, g):
        type_a = sorted(len(c) for c in a.cycles())
        type_c = sorted(len(c) for c in conjugate(a, g).cycles())
        assert type_a == type_c


class TestCycles:
    def test_cycles_partition_indices(self):
        p = parse_cycles("(1,9,3)(4,11,7)", 11)
        assert p.cycle_str() == "(1,9,3)(4,11,7)"
        flat = [x for c in p.cycles() for x in c]
        assert sorted(flat) == list(range(1, 12))

    def test_cycles_returns_a_new_list(self):
        p = parse_cycles("(1,9,3)(4,11,7)", 11)
        first = p.cycles()
        first[0] = (5,)
        first.append((1, 2))
        assert p.cycles() == [(1, 9, 3), (2,), (4, 11, 7), (5,), (6,),
                              (8,), (10,)]

    @given(rand_perm(8))
    def test_cycle_notation_round_trip(self, p):
        assert parse_cycles(p.cycle_str(), 8) == p

    @given(rand_perm(8))
    def test_from_cycles_round_trip(self, p):
        assert from_cycles(8, p.cycles()) == p

    def test_parse_rejects_garbage(self):
        with pytest.raises(PermError):
            parse_cycles("(1,2", 4)
        with pytest.raises(PermError):
            parse_cycles("(1,9)", 4)


class TestDihedralFactor:
    def test_orders(self):
        assert DihedralFactor((3,)).group_order == 1
        assert DihedralFactor((3, 7)).group_order == 2
        assert DihedralFactor((1, 2, 3)).group_order == 6
        assert DihedralFactor((1, 2, 3, 4)).group_order == 8

    def test_reflection_canonical_involution(self):
        f = DihedralFactor((1, 2, 3, 4))
        xi = reflection_xi(f, 1, 4, 4)
        assert xi == parse_cycles("(1,4)(2,3)", 4)
        assert compose(xi, xi) == identity(4)

    def test_reflection_swaps_endpoints(self):
        f = DihedralFactor((2, 5, 9, 6, 3))
        for a in f.cycle:
            for b in f.cycle:
                if a == b:
                    continue
                xi = reflection_xi(f, a, b, 9)
                assert xi(a) == b and xi(b) == a
                assert compose(xi, xi) == identity(9)
                # conjugating the rotation inverts it: xi r xi = r^-1
                r = from_cycles(9, [f.cycle])
                assert conjugate(r, xi) == inverse(r)
