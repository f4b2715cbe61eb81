"""Triangle moves: classification, algebraic updates, and full rebuilds."""

from fractions import Fraction as F

import pytest

from polykh import moves
from polykh.geometry import (PolygonalLink, validate_link, deform_add_vertex,
                            deform_remove_vertex)
from polykh.diagram import build_good_diagram
from polykh.cube import build_cube
from polykh.khovanov import khovanov_homology
from polykh.moves import (MoveError, TriangleMove, classify_triangle_move,
                          deformed_generator, transform_cube, riii_relabel,
                          apply_move, _renumber_perm, _renumber_index)
from polykh import load_fixture

from conftest import DIR_Z


def cycle_partition(perm):
    out = set()
    for cyc in perm.cycles():
        rev = (cyc[0],) + tuple(reversed(cyc[1:]))
        out.add(min(cyc, rev))
    return frozenset(out)


def homology_of(link):
    return khovanov_homology(build_cube(build_good_diagram(link, DIR_Z)))


PENT = [(0, 0, 0), (2, 2, 0), (4, 0, 0), (4, -3, 0), (0, -3, 0)]


def two_component(second):
    link = PolygonalLink.from_lists([PENT, second])
    assert validate_link(link) == []
    return link


@pytest.fixture(scope="module")
def c1_setup():
    """Trefoil with an extra vertex near the middle of edge (1,2): its
    removal is a crossing-free triangle move."""
    link = load_fixture("trefoil9")
    a, b = link.vertex(1), link.vertex(2)
    apex = tuple((a[i] + b[i]) / 2 + off
                 for i, off in enumerate((F(1, 50), F(1, 40), F(1, 100))))
    bigger = deform_add_vertex(link, 0, 0, apex)
    diagram = build_good_diagram(bigger, DIR_Z)
    return link, bigger, diagram


class TestClassification:
    def test_crossing_free(self, c1_setup):
        _, bigger, diagram = c1_setup
        move = classify_triangle_move(diagram, 2, link=bigger)
        assert move.log_line() == "C1 1 2 3"

    def test_bigon_collapse(self):
        link = load_fixture("kink5")
        diagram = build_good_diagram(link, DIR_Z)
        move = classify_triangle_move(diagram, 2, link=link)
        assert move.log_line() == "C2 1 2 3 [4]"

    def test_crossing_slides_off_first_side(self):
        link = two_component([(F(-1, 2), F(4, 5), 1), (F(3, 2), F(-4, 5), 1),
                              (F(3, 2), -5, 1), (-2, -5, 1), (-2, F(4, 5), 1)])
        diagram = build_good_diagram(link, DIR_Z)
        assert diagram.k == 2
        move = classify_triangle_move(diagram, 2, link=link)
        assert move.log_line() == "C4 1 2 3 [6 7]"

    def test_crossing_slides_off_second_side(self):
        link = two_component([(F(9, 2), F(4, 5), 1), (F(5, 2), F(-4, 5), 1),
                              (F(5, 2), -5, 1), (6, -5, 1), (6, F(4, 5), 1)])
        diagram = build_good_diagram(link, DIR_Z)
        move = classify_triangle_move(diagram, 2, link=link)
        assert move.log_line() == "C5 1 2 3 [6 7]"

    def test_strand_leaves_triangle(self):
        link = two_component([(-1, F(6, 5), 1), (2, F(1, 2), 1),
                              (5, F(6, 5), 1), (5, 4, 1), (-1, 4, 1)])
        diagram = build_good_diagram(link, DIR_Z)
        assert diagram.k == 2
        move = classify_triangle_move(diagram, 2, link=link)
        assert move.log_line() == "CC 1 2 3 [7 6 8]"

    def test_inner_vertex_absorbed(self):
        link = PolygonalLink.from_lists([
            [(0, 0, 0), (2, 2, 0), (4, 0, 0), (F(5, 2), F(1, 2), 2),
             (-1, 1, 2), (-1, -2, 0)]])
        assert validate_link(link) == []
        diagram = build_good_diagram(link, DIR_Z)
        assert diagram.k == 1
        move = classify_triangle_move(diagram, 2, link=link)
        assert move.log_line() == "CA 1 2 3 [4 5]"

    def test_crossing_migrates_to_new_edge(self):
        link = PolygonalLink.from_lists([
            [(0, 0, 0), (2, 2, 0), (4, 0, 0), (4, 8, 0), (-8, 4, 0)],
            [(2, -2, 2), (2, F(1, 2), 2), (-1, 1, 2), (-4, 1, 2),
             (-4, -4, 2), (3, -4, 2)]])
        assert validate_link(link) == []
        diagram = build_good_diagram(link, DIR_Z)
        assert diagram.k == 2
        move = classify_triangle_move(diagram, 2, link=link)
        assert move.log_line() == "CB 1 2 3 [7 8 6]"

    def test_degenerate_triangle_rejected(self):
        link = PolygonalLink.from_lists([
            [(0, 0, 0), (1, 0, 1), (2, 0, 0), (2, 2, 0), (0, 2, 0)]])
        diagram = build_good_diagram(link, DIR_Z)
        with pytest.raises(MoveError, match="degenerate"):
            classify_triangle_move(diagram, 2, link=link)

    def test_obstructed_in_3d(self):
        # another strand pierces the 3D triangle at (2,1,0)
        link = PolygonalLink.from_lists([
            [(0, 0, 0), (2, 2, 0), (4, 0, 0), (4, -3, 0), (0, -3, 0)],
            [(F(19, 10), F(9, 10), -3), (F(21, 10), F(11, 10), 3),
             (8, 8, 3), (8, -8, -3)]])
        assert validate_link(link) == []
        diagram = build_good_diagram(link, DIR_Z)
        with pytest.raises(MoveError, match="3D"):
            classify_triangle_move(diagram, 2, link=link)


class TestThirdReidemeister:
    X = [(-4, 0, 4), (0, 2, 4), (4, 0, 4), (12, -1, 4), (12, 20, 4),
         (-12, 20, 4), (-12, 1, 4)]
    Y = [(-6, F(8, 5), 2), (-1, F(7, 20), F(9, 4)), (6, F(-7, 5), 2),
         (6, -8, 2), (-8, -8, 2), (F(-13, 2), F(-4, 5), F(9, 5))]
    Z = [(-6, F(-13, 10), 0), (1, F(9, 20), F(1, 4)), (6, F(17, 10), 0),
         (11, F(17, 10), 0), (11, -12, 0), (-11, -12, 0),
         (-11, F(-13, 10), 0)]

    def link(self):
        link = PolygonalLink.from_lists([self.X, self.Y, self.Z])
        assert validate_link(link) == []
        return link

    def test_classified(self):
        link = self.link()
        diagram = build_good_diagram(link, DIR_Z)
        assert diagram.k == 6
        move = classify_triangle_move(diagram, 2, link=link)
        assert move.log_line() == "RIII 1 2 3 [9 15]"

    def test_apply_move_refuses(self):
        with pytest.raises(MoveError, match="Reidemeister III"):
            apply_move(self.link(), DIR_Z, 2)

    def test_relabel_map(self):
        d = build_good_diagram(load_fixture("riii"), DIR_Z)
        triple = tuple(cr.quadruple for cr in d.crossings)
        assert triple == ((1, 2, 5, 6), (2, 3, 7, 8), (4, 5, 8, 9))
        relabeled = riii_relabel(triple)
        assert relabeled == ((1, 2, 8, 9), (2, 3, 4, 5), (5, 6, 7, 8))
        assert riii_relabel(relabeled, inverse=True) == triple

    def test_relabel_matches_rebuilt_diagram(self):
        link = load_fixture("riii")
        d = build_good_diagram(link, DIR_Z)
        predicted = set(riii_relabel(tuple(cr.quadruple for cr in d.crossings)))
        moved = {2: (0, 3, 3), 5: (3, F(-3, 2), 2), 8: (-3, -1, -1)}
        comps = [[moved.get(gi, link.vertex(gi)) for gi in range(1, 10)]]
        link2 = PolygonalLink.from_lists(comps)
        assert validate_link(link2) == []
        d2 = build_good_diagram(link2, DIR_Z)
        assert {cr.quadruple for cr in d2.crossings} == predicted
        assert (sorted(cr.sign for cr in d2.crossings)
                == sorted(cr.sign for cr in d.crossings))
        assert homology_of(link) == homology_of(link2)


class TestAlgebraicUpdates:
    def test_crossing_free_cube_update(self, c1_setup):
        _, bigger, diagram = c1_setup
        move = classify_triangle_move(diagram, 2, link=bigger)
        cube = build_cube(diagram)
        cube2, provenance = transform_cube(cube, move)
        assert provenance
        _move, link2, diagram2 = apply_move(bigger, DIR_Z, 2)
        rebuilt = build_cube(diagram2)
        assert set(cube2.vertices) == set(rebuilt.vertices)
        for word, vx in cube2.vertices.items():
            # cubes agree up to independent reversal of each circle
            assert (cycle_partition(vx.state.successor)
                    == cycle_partition(rebuilt.vertices[word].state.successor))

    def test_apply_move_removes_vertex_once(self, c1_setup, monkeypatch):
        link, bigger, _diagram = c1_setup
        calls = []

        def counting(lk, p):
            calls.append(p)
            return deform_remove_vertex(lk, p)

        monkeypatch.setattr(moves, "deform_remove_vertex", counting)
        _move, link2, _diagram2 = apply_move(bigger, DIR_Z, 2)
        assert link2 == link
        assert calls == [2]

    def test_crossing_free_round_trip(self, c1_setup):
        link, bigger, _diagram = c1_setup
        _move, link2, diagram2 = apply_move(bigger, DIR_Z, 2)
        assert link2 == link
        original = build_good_diagram(link, DIR_Z)
        assert ([cr.quadruple + (cr.sign,) for cr in diagram2.crossings]
                == [cr.quadruple + (cr.sign,) for cr in original.crossings])

    def test_bigon_half_cube(self):
        link = load_fixture("kink5")
        diagram = build_good_diagram(link, DIR_Z)
        move = classify_triangle_move(diagram, 2, link=link)
        cube = build_cube(diagram)
        cube2, provenance = transform_cube(cube, move)
        assert any("discarded" in line for line in provenance)
        _move, _link2, diagram2 = apply_move(link, DIR_Z, 2)
        rebuilt = build_cube(diagram2)
        assert set(cube2.vertices) == set(rebuilt.vertices)
        for word, vx in cube2.vertices.items():
            other = rebuilt.vertices[word].state.successor
            assert (cycle_partition(vx.state.successor)
                    == cycle_partition(other))

    def test_composite_moves_require_rebuild(self):
        link = PolygonalLink.from_lists([
            [(0, 0, 0), (2, 2, 0), (4, 0, 0), (F(5, 2), F(1, 2), 2),
             (-1, 1, 2), (-1, -2, 0)]])
        diagram = build_good_diagram(link, DIR_Z)
        move = classify_triangle_move(diagram, 2, link=link)
        cube = build_cube(diagram)
        with pytest.raises(MoveError, match="recompute"):
            transform_cube(cube, move)

    def test_generator_fixes_removed_vertex(self, c1_setup):
        _, bigger, diagram = c1_setup
        move = classify_triangle_move(diagram, 2, link=bigger)
        cube = build_cube(diagram)
        _move, _link2, diagram2 = apply_move(bigger, DIR_Z, 2)
        rebuilt = build_cube(diagram2)
        for word, vx in cube.vertices.items():
            g = deformed_generator(move, vx.state)
            assert g(move.p) == move.p
            renum = _renumber_perm(g, move.p)
            cyc = renum.cycle_containing(_renumber_index(move.l, move.p))
            assert (min(cyc, (cyc[0],) + tuple(reversed(cyc[1:])))
                    in cycle_partition(rebuilt.vertices[word].state.successor))

    def test_generator_for_sliding_crossings(self):
        for second, tag in [
            ([(F(-1, 2), F(4, 5), 1), (F(3, 2), F(-4, 5), 1),
              (F(3, 2), -5, 1), (-2, -5, 1), (-2, F(4, 5), 1)], "C4"),
            ([(F(9, 2), F(4, 5), 1), (F(5, 2), F(-4, 5), 1),
              (F(5, 2), -5, 1), (6, -5, 1), (6, F(4, 5), 1)], "C5"),
        ]:
            link = two_component(second)
            diagram = build_good_diagram(link, DIR_Z)
            move = classify_triangle_move(diagram, 2, link=link)
            assert move.tag == tag
            cube = build_cube(diagram)
            for vx in cube.vertices.values():
                g = deformed_generator(move, vx.state)
                assert g(move.p) == move.p


class TestApplyMove:
    def test_crossing_deltas(self):
        fixtures = [
            (load_fixture("kink5"), 2, "C2", -1),
            (two_component([(F(-1, 2), F(4, 5), 1), (F(3, 2), F(-4, 5), 1),
                            (F(3, 2), -5, 1), (-2, -5, 1),
                            (-2, F(4, 5), 1)]), 2, "C4", 0),
            (two_component([(F(9, 2), F(4, 5), 1), (F(5, 2), F(-4, 5), 1),
                            (F(5, 2), -5, 1), (6, -5, 1),
                            (6, F(4, 5), 1)]), 2, "C5", 0),
            (two_component([(-1, F(6, 5), 1), (2, F(1, 2), 1),
                            (5, F(6, 5), 1), (5, 4, 1), (-1, 4, 1)]),
             2, "CC", -2),
            (PolygonalLink.from_lists([
                [(0, 0, 0), (2, 2, 0), (4, 0, 0), (F(5, 2), F(1, 2), 2),
                 (-1, 1, 2), (-1, -2, 0)]]), 2, "CA", -1),
            (PolygonalLink.from_lists([
                [(0, 0, 0), (2, 2, 0), (4, 0, 0), (4, 8, 0), (-8, 4, 0)],
                [(2, -2, 2), (2, F(1, 2), 2), (-1, 1, 2), (-4, 1, 2),
                 (-4, -4, 2), (3, -4, 2)]]), 2, "CB", 0),
        ]
        for link, p, tag, delta in fixtures:
            before = build_good_diagram(link, DIR_Z)
            move, link2, diagram2 = apply_move(link, DIR_Z, p)
            assert move.tag == tag
            assert diagram2.k - before.k == delta
            assert homology_of(link) == homology_of(link2)
