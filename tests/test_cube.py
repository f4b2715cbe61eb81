"""Cube of smoothings: trace oracle vs closed formulas, groups, edges."""

import itertools
import random

import pytest

from polykh.perm import Permutation, parse_cycles
from polykh import cube as cube_module
from polykh.cube import (CubeError, CubeMismatchError, initial_state, resolve,
                         smooth_crossing_trace, smooth_crossing_theorem,
                         vertex_group, build_cube, assemble_edges,
                         _crossing_arcs, _locate_arc)
from polykh import build_good_diagram, load_fixture

from conftest import DIR_Z, random_diagram


def cycle_partition(perm):
    out = set()
    for cyc in perm.cycles():
        rev = (cyc[0],) + tuple(reversed(cyc[1:]))
        out.add(min(cyc, rev))
    return frozenset(out)


def full_graph_trace(state, l, choice):
    """Reference trace oracle: graph surgery over all n vertices, every
    circle re-walked, untouched ones from their least vertex."""
    crossing = state.diagram.crossings[l - 1]
    i, j, v, w = crossing.quadruple
    sigma = state.successor
    n = sigma.n
    removed = {_locate_arc(sigma, i, j), _locate_arc(sigma, v, w)}
    edges = [(x, sigma(x), True) for x in range(1, n + 1)
             if (x, sigma(x)) not in removed]
    new_ids = []
    for (a, b) in _crossing_arcs(crossing, choice):
        new_ids.append(len(edges))
        edges.append((a, b, False))
    ends = {x: [] for x in range(1, n + 1)}
    for eid, (a, b, _) in enumerate(edges):
        ends[a].append(eid)
        ends[b].append(eid)
    assert all(len(e) == 2 for e in ends.values())
    succ = [0] * n
    seen = set()

    def walk(start, eid):
        cur, e = start, eid
        while True:
            a, b, _ = edges[e]
            nxt = b if cur == a else a
            succ[cur - 1] = nxt
            seen.add(cur)
            e = [x for x in ends[nxt] if x != e][0]
            cur = nxt
            if cur == start:
                break

    walk(i, next(eid for eid in new_ids if i in edges[eid][:2]))
    if v not in seen:
        walk(v, next(eid for eid in new_ids if v in edges[eid][:2]))
    for x in range(1, n + 1):
        if x in seen:
            continue
        eid = next((e for e in ends[x] if edges[e][2] and edges[e][0] == x),
                   None)
        if eid is not None:
            walk(x, eid)
    assert len(seen) == n
    return Permutation(succ)


def check_every_step(diagram, orders):
    """Resolve along every order, comparing the formula, the trace and the
    full-graph reference at each step; returns how many steps re-wired a
    circle holding neither i nor v."""
    further = 0
    for order in orders:
        stack = [initial_state(diagram)]
        while stack:
            state = stack.pop()
            depth = sum(1 for x in state.word if x != 2)
            if depth == diagram.k:
                continue
            l = order[depth]
            i, j, v, w = diagram.crossings[l - 1].quadruple
            for choice in (0, 1):
                traced = smooth_crossing_trace(state, l, choice)
                formula = smooth_crossing_theorem(state, l, choice)
                reference = full_graph_trace(state, l, choice)
                assert traced.successor == reference
                assert formula.successor == reference
                jw = traced.successor.cycle_containing(j)
                if w in jw and i not in jw and v not in jw:
                    further += 1
                stack.append(formula)
    return further


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
        further = 0
        for diagram in self.fixture_diagrams():
            orders = itertools.permutations(range(1, diagram.k + 1))
            further += check_every_step(diagram, orders)
        # the re-walk of a circle through neither i nor v is exercised
        assert further > 0

    def test_every_step_matches_on_random_diagrams(self):
        rng = random.Random(41)
        further = 0
        for _ in range(8):
            diagram, _link, _dir = random_diagram(rng)
            orders = [tuple(range(1, diagram.k + 1))]
            for _ in range(3):
                order = list(orders[0])
                rng.shuffle(order)
                orders.append(tuple(order))
            further += check_every_step(diagram, orders)
        assert further > 0

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

    def test_mutant_formula_branch_raises_mismatch(self, whitehead_diagram,
                                                  monkeypatch):
        # reverse the circle through i in the result of the plain branch
        # (sigma(i) = j, sigma(v) = w, transposition only); the first step
        # the mutant changes must be reported by build_cube
        original = smooth_crossing_theorem
        mutated = []

        def mutant(state, l, choice):
            out = original(state, l, choice)
            crossing = state.diagram.crossings[l - 1]
            i, j, v, w = crossing.quadruple
            sigma = state.successor
            if (sigma(i) == j and sigma(v) == w
                    and (choice == 0) == (crossing.sign == 1)):
                res = cube_module._reverse_cycles_touching(out.successor, (i,))
                if res != out.successor:
                    mutated.append((state.word, l, choice))
                    return cube_module.SmoothingState(
                        out.diagram, out.word, res)
            return out

        monkeypatch.setattr(cube_module, "smooth_crossing_theorem", mutant)
        with pytest.raises(CubeMismatchError) as info:
            build_cube(whitehead_diagram)
        assert mutated
        word, crossing, choice = mutated[0]
        assert (info.value.word, info.value.crossing,
                info.value.choice) == (word, crossing, choice)


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
