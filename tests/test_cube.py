"""Cube of smoothings: trace oracle vs closed formulas, groups, edges."""

import itertools
import random
import re
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from polykh.perm import PermError, Permutation
from polykh import cube as cube_module
from polykh.cube import (CubeError, CubeMismatchError, initial_state, resolve,
                         smooth_crossing_trace, build_cube,
                         _crossing_arcs, _locate_arc)
from polykh import build_good_diagram, load_fixture
from polykh.moves import classify_triangle_move, transform_cube

from conftest import (DIR_Z, compose, conjugate, cycle_containing,
                      cycle_partition, from_cycles, miscounted,
                      miscount_message, parse_cycles, random_diagram,
                      reference_edges, reflection_in, transposition,
                      twist_link)


def full_graph_trace(state, l, choice):
    """Reference trace oracle: graph surgery over all n vertices, every
    circle re-walked, untouched ones from their least vertex."""
    crossing = state.diagram.crossings[l - 1]
    i, j, v, w = crossing.quadruple
    sigma = state.successor
    n = sigma.n
    s = [0, *sigma.images]
    removed = {_locate_arc(s, i, j), _locate_arc(s, v, w)}
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


def reverse_cycles(perm, members):
    """Reference reversal of every cycle of perm holding a member."""
    return from_cycles(perm.n, [
        cyc[::-1] if set(cyc) & set(members) else cyc
        for cyc in perm.cycles()])


def permutation_formula(state, l, choice):
    """Reference formula side: the closed formulas in the permutation
    algebra, each transposition and reflection a full Permutation."""
    crossing = state.diagram.crossings[l - 1]
    i, j, v, w = crossing.quadruple
    eps = crossing.sign
    sigma = state.successor
    n = sigma.n
    T = lambda a, b: transposition(n, a, b)
    same = v in cycle_containing(sigma, i)

    if sigma(i) == j and sigma(v) == w:
        if (choice == 0) == (eps == 1):
            res = compose(T(j, w), sigma)
        elif same:
            res = conjugate(sigma, reflection_in(compose(T(j, w), sigma), j, v))
        else:
            res = conjugate(compose(T(j, w), sigma), reflection_in(sigma, v, w))
    elif sigma(i) == j and sigma(w) == v:
        if (choice == 1) == (eps == 1):
            res = compose(T(j, v), sigma)
        elif same:
            res = conjugate(sigma, reflection_in(compose(T(j, v), sigma), j, w))
        else:
            res = conjugate(compose(T(j, v), sigma), reflection_in(sigma, v, w))
    elif sigma(j) == i and sigma(v) == w:
        if (choice == 1) == (eps == 1):
            res = compose(sigma, T(j, v))
        elif same:
            res = conjugate(sigma, reflection_in(compose(sigma, T(j, v)), j, w))
        else:
            res = conjugate(compose(sigma, T(j, v)), reflection_in(sigma, v, w))
        res = reverse_cycles(res, (i, v))
    else:
        assert sigma(j) == i and sigma(w) == v
        if (choice == 0) == (eps == 1):
            res = compose(sigma, T(j, w))
        elif same:
            res = conjugate(sigma, reflection_in(compose(sigma, T(j, w)), j, v))
        else:
            res = conjugate(compose(sigma, T(j, w)), reflection_in(sigma, v, w))
        res = reverse_cycles(res, (i, v))
    return res


def check_every_step(diagram, orders):
    """Resolve along every order, comparing the trace, the formula, the
    full-graph reference and the permutation-algebra reference at each
    step; returns how many steps re-wired a circle holding neither i nor
    v."""
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
                traced = cube_module.smooth_crossing_trace(state, l, choice)
                formula = cube_module.smooth_crossing_theorem(state, l, choice)
                reference = full_graph_trace(state, l, choice)
                assert traced.successor == reference
                assert formula.successor == reference
                assert permutation_formula(state, l, choice) == reference
                jw = cycle_containing(traced.successor, j)
                if w in jw and i not in jw and v not in jw:
                    further += 1
                stack.append(formula)
    return further


class TestInitialState:
    def test_component_cycles(self, trefoil_diagram):
        s = initial_state(trefoil_diagram)
        assert s.word == (2, 2, 2)
        assert s.successor == parse_cycles("(1,2,3,4,5,6,7,8,9)", 9)

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
        assert sorted(len(g.cycle) for g in vx.groups) == [3, 9]
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
        original = cube_module._formula_images
        mutated = []

        def mutant(crossing, s, choice):
            out = original(crossing, s, choice)
            i, j, v, w = crossing.quadruple
            if (s[i] == j and s[v] == w
                    and (choice == 0) == (crossing.sign == 1)):
                res = cube_module._reversed_cycles(out, (i,))
                if res != out:
                    mutated.append((word_of(whitehead_diagram, s),
                                    crossing.index, choice))
                    return res
            return out

        monkeypatch.setattr(cube_module, "_formula_images", mutant)
        with pytest.raises(CubeMismatchError) as info:
            build_cube(whitehead_diagram)
        assert mutated
        assert (info.value.word, info.value.crossing,
                info.value.choice) == mutated[0]

    def test_mutant_strand_trace_caught(self, whitehead_diagram,
                                        monkeypatch):
        # walk the remaining strand (the j-w circle, holding neither i nor
        # v) against sigma's direction: the full-graph reference must
        # disagree, and build_cube must report the first changed step
        original = cube_module._trace_images
        mutated = []

        def mutant(crossing, s, choice):
            out = original(crossing, s, choice)
            i, j, v, w = crossing.quadruple
            jw = cube_module._cycle_of(out, j)
            if i in jw or v in jw:
                return out
            res = cube_module._reversed_cycles(out, (j,))
            if res == out:
                return out
            mutated.append((word_of(whitehead_diagram, s), crossing.index,
                            choice))
            return res

        monkeypatch.setattr(cube_module, "_trace_images", mutant)
        with pytest.raises(AssertionError):
            check_every_step(whitehead_diagram,
                             [tuple(range(1, whitehead_diagram.k + 1))])
        assert mutated
        mutated.clear()
        with pytest.raises(CubeMismatchError) as info:
            build_cube(whitehead_diagram)
        assert mutated
        assert (info.value.word, info.value.crossing,
                info.value.choice) == mutated[0]

    def test_non_bijective_list_caught(self, whitehead_diagram, monkeypatch):
        # the last step of a formula core returns a list that is no
        # bijection: the step comparison reports it, and if the trace
        # returned the same list, the full smoothing's Permutation rejects it
        k = whitehead_diagram.k
        formula, trace = cube_module._formula_images, cube_module._trace_images

        def broken(core):
            def run(crossing, s, choice):
                out = core(crossing, s, choice)
                if crossing.index == k:
                    out[1] = out[2]
                return out
            return run

        monkeypatch.setattr(cube_module, "_formula_images", broken(formula))
        with pytest.raises(CubeMismatchError, match="non-bijective") as info:
            build_cube(whitehead_diagram)
        assert info.value.crossing == k and info.value.word[k - 1] == 2
        monkeypatch.setattr(cube_module, "_trace_images", broken(trace))
        with pytest.raises(PermError, match="not a bijection") as info:
            build_cube(whitehead_diagram)
        assert info.traceback[-2].name == "_full_smoothing"


def word_of(diagram, s):
    """The word of the partial smoothing whose arcs the image list s runs
    along: per crossing, 2 while both crossing edges are present, else the
    choice whose pairing is."""
    joined = lambda a, b: s[a] == b or s[b] == a
    word = []
    for cr in diagram.crossings:
        letters = [letter for letter, arcs in (
            (2, ((cr.i, cr.j), (cr.v, cr.w))),
            (0, _crossing_arcs(cr, 0)), (1, _crossing_arcs(cr, 1)))
            if all(joined(a, b) for a, b in arcs)]
        assert len(letters) == 1, (cr, s)
        word += letters
    return tuple(word)


class TestBuildWork:
    @staticmethod
    def counted(monkeypatch):
        """Lists that grow by one for each Permutation made and for each
        call of its ``cycles()``."""
        built, walked = [], []
        init, cycles = Permutation.__init__, Permutation.cycles

        def counting_init(self, images):
            built.append(1)
            init(self, images)

        def counting_cycles(self):
            walked.append(1)
            return cycles(self)

        monkeypatch.setattr(Permutation, "__init__", counting_init)
        monkeypatch.setattr(Permutation, "cycles", counting_cycles)
        return built, walked

    def test_one_permutation_per_vertex_two_oracles_per_step(
            self, whitehead_diagram, monkeypatch):
        # steps stay on image lists: build_cube makes one Permutation per
        # full smoothing, whose constructor walks its cycles once, and
        # compares the formula with the trace on every one of the
        # 2^(k+1) - 2 steps
        k = whitehead_diagram.k
        compared = []

        class Compared(list):
            __hash__ = None

            def __eq__(self, other):
                compared.append(1)
                return list.__eq__(self, other)

            def __ne__(self, other):
                compared.append(1)
                return list.__ne__(self, other)

        trace = cube_module._trace_images
        built, walked = self.counted(monkeypatch)
        monkeypatch.setattr(cube_module, "_trace_images",
                            lambda *args: Compared(trace(*args)))
        cube = build_cube(whitehead_diagram)
        assert len(cube.vertices) == len(built) == 2 ** k
        assert len(compared) == 2 ** (k + 1) - 2
        assert not walked

    def test_one_permutation_per_kept_vertex_of_a_move(self, monkeypatch):
        # removing vertex 5 of kink5 is a C1 move: transform_cube makes one
        # Permutation per vertex and walks no cycles again
        link = load_fixture("kink5")
        diagram = build_good_diagram(link, DIR_Z)
        move = classify_triangle_move(diagram, 5, link=link)
        assert move.tag == "C1"
        cube = build_cube(diagram)
        built, walked = self.counted(monkeypatch)
        moved, _ = transform_cube(cube, move)
        assert len(moved.vertices) == len(built) == 2 ** diagram.k
        assert not walked


def sibling_relations(state, l):
    """The paper's direct relations between the two resolutions of
    crossing l: maps each relation that applies to whether it holds.

    sigma_minus denotes the 1-resolution and sigma_plus the 0-resolution,
    both from the trace oracle.
    """
    crossing = state.diagram.crossings[l - 1]
    i, j, v, w = crossing.quadruple
    eps = crossing.sign
    sigma = state.successor
    n = sigma.n
    T = lambda a, b: transposition(n, a, b)
    plus = smooth_crossing_trace(state, l, 0).successor
    minus = smooth_crossing_trace(state, l, 1).successor
    report = {}

    if v not in cycle_containing(sigma, i):
        # distinct cycles: minus = plus conjugated by the parent v-w reflection
        xi = reflection_in(sigma, v, w)
        report["distinct: minus = plus^xi(v,w)"] = (minus == conjugate(plus, xi))
        return report

    # same cycle: {a,b} with sigma(a) = b
    a, b = (v, w) if sigma(v) == w else (w, v)
    assert sigma(a) == b
    if sigma(i) == j:
        if (a == w and eps == 1) or (a == v and eps == -1):
            lhs = compose(T(j, b), conjugate(plus, reflection_in(minus, j, a)))
            report["same, i->j, case 1"] = (minus == lhs)
        else:
            lhs = conjugate(compose(T(j, b), plus), reflection_in(plus, j, a))
            report["same, i->j, case 2"] = (minus == lhs)
    else:
        # the published identity is stated for the reversed parent
        # orientation; translate the children into that convention
        p_rev = reverse_cycles(plus, (i, v))
        m_rev = reverse_cycles(minus, (i, v))
        if (a == v and eps == -1) or (a == w and eps == 1):
            lhs = conjugate(compose(p_rev, T(j, a)), reflection_in(p_rev, j, b))
            report["same, j->i, case 1"] = (m_rev == lhs)
        else:
            lhs = compose(conjugate(p_rev, reflection_in(m_rev, j, b)), T(j, a))
            report["same, j->i, case 2"] = (m_rev == lhs)
    return report


class TestSiblingRelations:
    def test_relations_hold(self):
        # every state of the default-order descent, with the next crossing
        diagrams = [build_good_diagram(load_fixture(name), DIR_Z)
                    for name in ("trefoil9", "whitehead12", "kink5", "riii")]
        rng = random.Random(7)
        diagrams += [random_diagram(rng)[0] for _ in range(8)]
        hits = {}
        for diagram in diagrams:
            stack = [initial_state(diagram)]
            while stack:
                state = stack.pop()
                depth = sum(1 for x in state.word if x != 2)
                if depth == diagram.k:
                    continue
                l = depth + 1
                for name, holds in sibling_relations(state, l).items():
                    assert holds, (name, state.word, l)
                    hits[name] = hits.get(name, 0) + 1
                stack += [resolve(state, l, 0), resolve(state, l, 1)]
        assert len(hits) == 5, hits


permutations = st.integers(2, 9).flatmap(
    lambda n: st.permutations(range(1, n + 1))).map(Permutation)


class TestImageLists:
    @given(permutations, st.data())
    def test_helpers_match_permutation_algebra(self, p, data):
        n = p.n
        img = [0, *p.images]
        as_perm = lambda q: Permutation(q[1:])
        a = data.draw(st.integers(1, n))
        b = data.draw(st.integers(1, n).filter(lambda x: x != a))
        T = transposition(n, a, b)
        assert as_perm(cube_module._right_swap(img, a, b)) == compose(p, T)
        assert tuple(cube_module._cycle_of(img, a)) == cycle_containing(p, a)
        assert (cube_module._same_cycle(img, a, b)
                == (b in cycle_containing(p, a)))
        assert (as_perm(cube_module._reversed_cycles(img, (a, b)))
                == reverse_cycles(p, (a, b)))
        assert img == [0, *p.images]        # no helper edits its input
        cyc = cycle_containing(p, a)
        if b not in cyc:
            with pytest.raises(CubeError):
                cube_module._reflection(img, a, b)
        if len(cyc) == 1:
            return
        c = data.draw(st.sampled_from(cyc[1:]))
        xi = reflection_in(p, a, c)
        g = cube_module._reflection(img, a, c)
        assert as_perm(g) == xi
        q = Permutation(data.draw(st.permutations(range(1, n + 1))))
        assert (as_perm(cube_module._conjugate([0, *q.images], g))
                == conjugate(q, xi))


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


FIXTURES = ("trefoil9", "whitehead12", "kink5", "riii", "square",
            "two_squares", "twist12")


class TestEdges:
    def test_edges_match_tuple_reference(self):
        # same edges in the same order; tails and heads are the vertices'
        # own words, and the dihedral factors hold the cycle tuples
        diagrams = [build_good_diagram(load_fixture(name), DIR_Z)
                    for name in FIXTURES]
        diagrams += [random_diagram(random.Random(seed))[0]
                     for seed in range(10)]
        for diagram in diagrams:
            cube = build_cube(diagram)
            assert list(cube.edges) == reference_edges(cube.vertices)
            words = {id(word) for word in cube.vertices}
            assert all(id(edge.tail) in words and id(edge.head) in words
                       for edge in cube.edges)
            for word, vx in cube.vertices.items():
                assert vx.word is word
                cycles = vx.state.successor.cycles()
                assert all(g.cycle is c for g, c in zip(vx.groups, cycles))
                cycles.clear()
                assert len(vx.state.successor.cycles()) == vx.c

    def test_edges_are_a_view_of_the_vertices(self, whitehead_diagram):
        cube = build_cube(whitehead_diagram)
        edges = list(cube.edges)
        assert len(edges) == cube.k * 2 ** (cube.k - 1)
        assert list(cube.edges.core()) == [
            (e.tail, e.head, e.kind, e.sign) for e in edges]

    def test_equal_circles_are_one_object(self, whitehead_diagram):
        # one cycle tuple and one DihedralFactor per distinct oriented
        # circle, held by every vertex that has it and by its Permutation
        cube = build_cube(whitehead_diagram)
        factors = {}
        for vx in cube.vertices.values():
            for g, cyc in zip(vx.groups, vx.state.successor.cycles()):
                assert factors.setdefault(g.cycle, g) is g
                assert cyc is g.cycle
        assert len(factors) < sum(vx.c for vx in cube.vertices.values())
        sigma = cube.vertices[(0,) * cube.k].state.successor
        first = sigma.cycles()
        assert first is not sigma.cycles() and first == sigma.cycles()

    def test_cube_bytes_per_vertex(self):
        # the vertices' words, Permutations and shared circles: T(2,10)
        # took 2,497 bytes a vertex while the cube stored its edges
        diagram = build_good_diagram(twist_link(10, 1), DIR_Z)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cube = build_cube(diagram)
            size = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(cube.vertices) == 1024
        assert size / len(cube.vertices) < 1000

    @pytest.mark.parametrize("name, order, word, delta", [
        pytest.param("trefoil9", None, (0, 1, 1), 1, id="1"),
        pytest.param("trefoil9", None, (0, 1, 1), -1, id="-1"),
        # two circles more or fewer break only some edges of the vertex:
        # its first bad edge is at position 2, then 4
        pytest.param("whitehead12", None, (0, 1, 0, 1, 0), 2,
                     id="whitehead12-2"),
        pytest.param("whitehead12", None, (0, 0, 0, 0, 1), -2,
                     id="whitehead12--2"),
        # at position 1 here, but the first bad edge met vertex by vertex
        # is at position 4
        pytest.param("whitehead12", (5, 3, 1, 4, 2), (0, 1, 1, 1, 1), 2,
                     id="whitehead12-order-2"),
    ])
    def test_circle_count_check_names_the_edge(self, monkeypatch, name,
                                               order, word, delta):
        diagram = build_good_diagram(load_fixture(name), DIR_Z)
        message = miscount_message(build_cube(diagram, order=order), word,
                                   delta)
        monkeypatch.setattr(cube_module, "_full_smoothing", miscounted(
            cube_module._full_smoothing, word, delta))
        with pytest.raises(CubeError, match=f"^{re.escape(message)}$"):
            build_cube(diagram, order=order)

    def test_edge_count_and_star_words(self, trefoil_cube):
        assert len(list(trefoil_cube.edges)) == 3 * 2 ** 2
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
