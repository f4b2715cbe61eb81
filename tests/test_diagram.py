"""Good diagrams: crossing enumeration, signs, index sets."""

from fractions import Fraction as F
import random

import pytest

from polykh.geometry import cross2, sub2, seg2_intersection, chart_basis, dot3
from polykh.diagram import (GoodDiagram, CrossingRecord, crossing_sign,
                            build_good_diagram, good_diagram_auto)
from polykh import load_fixture

from conftest import DIR_Z, random_diagram


def index_sets(diagram):
    """(I, V, K): overcrossing starts, undercrossing starts, the rest."""
    I = frozenset(c.i for c in diagram.crossings)
    V = frozenset(c.v for c in diagram.crossings)
    assert not I & V, f"indices both over and under: {sorted(I & V)}"
    K = frozenset(range(1, diagram.n + 1)) - I - V
    return I, V, K


def quadruples(diagram):
    return [(cr.i, cr.j, cr.v, cr.w, cr.sign) for cr in diagram.crossings]


class TestTrefoil:
    def test_crossing_table(self, trefoil_diagram):
        assert quadruples(trefoil_diagram) == [
            (3, 4, 8, 9, +1), (6, 7, 2, 3, +1), (9, 1, 5, 6, +1)]
        assert [cr.index for cr in trefoil_diagram.crossings] == [1, 2, 3]

    def test_counts(self, trefoil_diagram):
        assert (trefoil_diagram.k, trefoil_diagram.k_plus,
                trefoil_diagram.k_minus) == (3, 3, 0)

    def test_index_sets(self, trefoil_diagram):
        I, V, K = index_sets(trefoil_diagram)
        assert I == {3, 6, 9} and V == {8, 2, 5}
        assert K == {1, 4, 7}


class TestWhitehead:
    def test_crossing_table(self, whitehead_diagram):
        assert quadruples(whitehead_diagram) == [
            (3, 4, 7, 8, -1), (6, 7, 11, 12, -1), (8, 1, 9, 10, +1),
            (10, 11, 4, 5, -1), (12, 9, 2, 3, +1)]

    def test_writhe(self, whitehead_diagram):
        assert whitehead_diagram.k_plus - whitehead_diagram.k_minus == -1


class TestUnknots:
    def test_square_no_crossings(self):
        d = build_good_diagram(load_fixture("square"), DIR_Z)
        assert d.k == 0 and d.boundaries == (4,)

    def test_two_squares(self):
        d = build_good_diagram(load_fixture("two_squares"), DIR_Z)
        assert d.k == 0 and d.boundaries == (4, 8)

    def test_kink(self):
        d = build_good_diagram(load_fixture("kink5"), DIR_Z)
        assert d.k == 1


class TestSignOracle:
    def test_axis_aligned_signs(self):
        # over strand heading +x, under strand heading +y: right-handed
        assert crossing_sign((F(-1), F(0)), (F(1), F(0)),
                             (F(0), F(-1)), (F(0), F(1))) == 1
        assert crossing_sign((F(-1), F(0)), (F(1), F(0)),
                             (F(0), F(1)), (F(0), F(-1))) == -1

    def test_recorded_signs_match_determinant(self, whitehead_diagram):
        d = whitehead_diagram
        for cr in d.crossings:
            over = sub2(d.vertex(cr.j), d.vertex(cr.i))
            under = sub2(d.vertex(cr.w), d.vertex(cr.v))
            expect = 1 if cross2(over, under) > 0 else -1
            assert cr.sign == expect


class TestStructure:
    def test_sorted_by_over_edge_start(self, whitehead_diagram):
        starts = [cr.i for cr in whitehead_diagram.crossings]
        assert starts == sorted(starts)

    def test_crossing_points_on_both_edges(self, trefoil_diagram):
        d = trefoil_diagram
        for cr in d.crossings:
            hit = seg2_intersection(d.vertex(cr.i), d.vertex(cr.j),
                                    d.vertex(cr.v), d.vertex(cr.w))
            assert hit[0] == "point" and hit[1][2] == cr.point

    def test_over_edge_is_higher(self, trefoil_link, trefoil_diagram):
        # the over strand of every crossing has greater depth along the
        # projection direction at the crossing point
        d = trefoil_diagram
        u, v = chart_basis(DIR_Z)
        for cr in d.crossings:
            def depth(a, b):
                pa, pb = trefoil_link.vertex(a), trefoil_link.vertex(b)
                qa, qb = d.vertex(a), d.vertex(b)
                num = cr.point[0] - qa[0]
                den = qb[0] - qa[0]
                if den == 0:
                    num, den = cr.point[1] - qa[1], qb[1] - qa[1]
                t = num / den
                return tuple(pa[i] + t * (pb[i] - pa[i]) for i in range(3))[2]
            assert depth(cr.i, cr.j) > depth(cr.v, cr.w)

    def test_component_neighbours_match_link(self):
        for name in ("trefoil9", "whitehead12", "two_squares", "kink5"):
            link = load_fixture(name)
            diagram = build_good_diagram(link, DIR_Z)
            for gi in range(1, link.n + 1):
                assert diagram.successor(gi) == link.successor(gi)
                assert diagram.predecessor(gi) == link.predecessor(gi)
            for gi in (0, link.n + 1):
                with pytest.raises(IndexError):
                    diagram.successor(gi)
                with pytest.raises(IndexError):
                    diagram.predecessor(gi)

    def test_random_diagrams_are_good(self):
        rng = random.Random(5)
        for _ in range(15):
            diagram, refined, _dir = random_diagram(rng)
            per_edge = {}
            for cr in diagram.crossings:
                for e in ((cr.i, cr.j), (cr.v, cr.w)):
                    per_edge[e] = per_edge.get(e, 0) + 1
                assert len({cr.i, cr.j, cr.v, cr.w}) == 4
            assert all(c <= 1 for c in per_edge.values())
            assert diagram.n == refined.n
