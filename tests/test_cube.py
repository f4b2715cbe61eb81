"""Cube of smoothings: trace oracle vs closed formulas, groups, edges."""

import itertools
import random

import pytest

from polykh.perm import Permutation, parse_cycles
from polykh.cube import (CubeError, CubeMismatchError, initial_state, resolve,
                         smooth_crossing_trace, smooth_crossing_theorem,
                         vertex_group, build_cube, assemble_edges)
from polykh import build_good_diagram, load_fixture

from conftest import DIR_Z, random_diagram


def cycle_partition(perm):
    out = set()
    for cyc in perm.cycles():
        rev = (cyc[0],) + tuple(reversed(cyc[1:]))
        out.add(min(cyc, rev))
    return frozenset(out)


class TestInitialState:
    def test_component_cycles(self, trefoil_diagram):
        s = initial_state(trefoil_diagram)
        assert s.word == (2, 2, 2)
        assert s.successor == parse_cycles("(1,2,3,4,5,6,7,8,9)", 9)
        assert not s.resolved

    def test_two_components(self, whitehead_diagram):
        s = initial_state(whitehead_diagram)
        assert s.successor == parse_cycles(
            "(1,2,3,4,5,6,7,8)(9,10,11,12)", 12)


class TestTrefoilCube:
    def test_eight_vertices(self, trefoil_cube):
        assert set(trefoil_cube.vertices) == set(
            itertools.product((0, 1), repeat=3))

    def test_printed_permutations(self, trefoil_cube):
        # exact successor permutations along resolution order (1,2,3)
        assert trefoil_cube.order == (1, 2, 3)
        expected = {
            (0, 0, 0): "(1,2,7,8,4,5)(6,3,9)",
            (1, 1, 0): "(1,5,4,9,6,2)(3,8,7)",
        }
        for word, text in expected.items():
            assert (trefoil_cube.vertices[word].state.successor
                    == parse_cycles(text, 9))

    def test_circle_counts(self, trefoil_cube):
        cs = {w: v.c for w, v in trefoil_cube.vertices.items()}
        assert cs == {(0, 0, 0): 2, (0, 0, 1): 1, (0, 1, 0): 1,
                      (0, 1, 1): 2, (1, 0, 0): 1, (1, 0, 1): 2,
                      (1, 1, 0): 2, (1, 1, 1): 3}


class TestWhiteheadCube:
    def test_11011_cycles_and_groups(self, whitehead_diagram):
        cube = build_cube(whitehead_diagram)
        vx = cube.vertices[(1, 1, 0, 1, 1)]
        assert cycle_partition(vx.state.successor) == cycle_partition(
            parse_cycles("(1,9,3,8,10,5,6,12,2)(4,11,7)", 12))
        assert sorted(g.order for g in vx.groups) == [3, 9]
        assert sorted(g.group_order for g in vx.groups) == [6, 18]


class TestTheoremVsTrace:
    def fixture_diagrams(self):
        for name in ("trefoil9", "whitehead12", "kink5", "riii"):
            yield build_good_diagram(load_fixture(name), DIR_Z)

    def test_every_step_matches_on_fixtures(self):
        for diagram in self.fixture_diagrams():
            k = diagram.k
            orders = itertools.permutations(range(1, k + 1))
            for order in orders:
                state_stack = [initial_state(diagram)]
                def descend(state, depth):
                    if depth == k:
                        return
                    l = order[depth]
                    for choice in (0, 1):
                        traced = smooth_crossing_trace(state, l, choice)
                        formula = smooth_crossing_theorem(state, l, choice)
                        assert traced.successor == formula.successor
                        descend(formula, depth + 1)
                descend(state_stack[0], 0)

    def test_path_independence_up_to_orientation(self, whitehead_diagram):
        base = build_cube(whitehead_diagram)
        parts = {w: cycle_partition(v.state.successor)
                 for w, v in base.vertices.items()}
        rng = random.Random(2)
        for _ in range(5):
            order = list(range(1, whitehead_diagram.k + 1))
            rng.shuffle(order)
            other = build_cube(whitehead_diagram, order=tuple(order))
            for w, v in other.vertices.items():
                assert cycle_partition(v.state.successor) == parts[w]

    def test_random_diagrams(self):
        rng = random.Random(99)
        for _ in range(10):
            diagram, _link, _dir = random_diagram(rng)
            build_cube(diagram)  # raises CubeMismatchError on any step

    def test_mismatch_error_reports_location(self, trefoil_diagram):
        s = initial_state(trefoil_diagram)
        with pytest.raises(CubeError):
            resolve(s, 5, 0)
        with pytest.raises(CubeError):
            resolve(s, 1, 2)
        r = resolve(s, 1, 0)
        with pytest.raises(CubeError):
            resolve(r, 1, 1)  # already resolved


class TestStateInvariants:
    def test_smoothing_changes_circles_by_one(self):
        # resolving one crossing of a full smoothing merges or splits
        rng = random.Random(17)
        for _ in range(8):
            diagram, _link, _dir = random_diagram(rng)
            if diagram.k == 0:
                continue
            cube = build_cube(diagram)
            for edge in cube.edges:
                ct = cube.vertices[edge.tail].c
                ch = cube.vertices[edge.head].c
                assert abs(ct - ch) == 1
                assert edge.kind == ("merge" if ch == ct - 1 else "split")

    def test_vertex_group_requires_resolution(self, trefoil_diagram):
        with pytest.raises(CubeError):
            vertex_group(initial_state(trefoil_diagram))


class TestEdges:
    def test_edge_count_and_star_words(self, trefoil_cube):
        assert len(trefoil_cube.edges) == 3 * 2 ** 2
        for edge in trefoil_cube.edges:
            stars = [i for i, x in enumerate(edge.star_word) if x == "*"]
            assert len(stars) == 1
            pos = stars[0]
            assert edge.tail[pos] == 0 and edge.head[pos] == 1
            ones_left = sum(1 for x in edge.star_word[:pos] if x == 1)
            assert edge.sign == (-1) ** ones_left

    def test_square_faces_anticommute(self, trefoil_cube):
        # around every 2-face the four edge signs multiply to -1
        by_pair = {}
        for e in trefoil_cube.edges:
            pos = next(i for i, x in enumerate(e.star_word) if x == "*")
            by_pair.setdefault(pos, []).append(e)
        k = trefoil_cube.k
        import itertools as it
        for p1, p2 in it.combinations(range(k), 2):
            for word in it.product((0, 1), repeat=k):
                if word[p1] or word[p2]:
                    continue
                def sign(pos, w):
                    return next(e.sign for e in by_pair[pos] if e.tail == w)
                w10 = tuple(1 if i == p1 else x for i, x in enumerate(word))
                w01 = tuple(1 if i == p2 else x for i, x in enumerate(word))
                assert (sign(p1, word) * sign(p2, w10)
                        * sign(p2, word) * sign(p1, w01)) == -1
