"""Triangle moves: classification, algebraic updates, and full rebuilds."""

from collections import Counter
from fractions import Fraction as F
import inspect
import random
import re
import sys
import types

import pytest

from polykh import geometry, moves
from polykh.geometry import (PolygonalLink, validate_link, deform_add_vertex,
                            deform_remove_vertex)
from polykh.diagram import build_good_diagram, good_diagram_auto
from polykh.cube import CubeError, build_cube
from polykh.khovanov import khovanov_homology
from polykh.moves import (MoveError, TriangleMove, classify_triangle_move,
                          transform_cube, apply_move, _renumbered,
                          _renumber_index)
from polykh.perm import Permutation
from polykh import load_fixture

from conftest import (DIR_Z, classify_reference, compose, cycle_containing,
                      cycle_partition, from_cycles, miscounted,
                      miscount_message, outcome_of, random_diagram,
                      reference_add_vertex, reference_apply_move,
                      reference_edges, seeded_apexes, transposition)


def renumbered(perm, p):
    """``perm``, which fixes p, with p dropped and higher indices shifted."""
    assert perm(p) == p
    return Permutation(_renumbered([0, *perm.images], p)[1:])


def substitution_reference(cube, move):
    """The (word, successor) pairs of ``transform_cube``'s result, by the
    Permutation algebra: a reference for the image-list substitution step.

    Each kept sigma has the cycle through p reversed if needed so that
    sigma(a) = p, with a = m for C2 and a = l for C1 and C3; it is then
    composed with T(a, p), and p is renumbered away.  For C2/C3 the
    smoothings holding the bigon (p, a) are discarded, and the others lose
    the letter of the vanishing crossing, the one whose quadruple holds p.
    """
    p = move.p
    a = move.m if move.tag == "C2" else move.l
    lc = None
    if move.tag in ("C2", "C3"):
        lc = next(cr.index for cr in cube.diagram.crossings
                  if p in cr.quadruple)
    out = []
    for word, vx in cube.vertices.items():
        sigma = vx.state.successor
        n = sigma.n
        if lc is not None:
            if sigma(p) == a and sigma(a) == p:
                continue
            word = word[:lc - 1] + word[lc:]
        if sigma(a) != p:
            assert sigma(p) == a
            sigma = from_cycles(
                n, [cyc[::-1] if p in cyc else cyc for cyc in sigma.cycles()])
        s = compose(sigma, transposition(n, a, p))
        assert s(p) == p
        out.append((word, Permutation([_renumber_index(s(x), p)
                                       for x in range(1, n + 1) if x != p])))
    return out


def generator_reference(move, sigma):
    """The deformed component cycle of the full smoothing sigma under a
    C1-C5 move, by the permutation algebra: a permutation of the original
    indices that fixes p, which the caller renumbers away.  lam is the
    cycle of sigma through x (l for C2, m for C3, p otherwise) as a
    permutation fixing every other index.  For C2/C3, sigma must lie in the
    kept half of the cube: the smoothings without the residual bigon."""
    n, l, p, m = sigma.n, move.l, move.p, move.m

    def T(a, b):
        return transposition(n, a, b)

    x, y = {"C2": (l, m), "C3": (m, l)}.get(move.tag, (p, None))
    cyc = cycle_containing(sigma, x)
    lam = from_cycles(n, [cyc])
    if move.tag == "C1":
        assert lam(l) == p or lam(p) == l
        return compose(lam, T(l, p) if lam(l) == p else T(m, p))
    if move.tag in ("C2", "C3"):
        # the kept resolution of the vanishing crossing joins x to y by an
        # arc, so y lies on the cycle through x
        assert y in cyc, f"{y} is not on the cycle {cyc} through {x}"
        candidates = [compose(T(y, p), cand, T(y, p), T(x, p))
                      for cand in (lam, from_cycles(n, [cyc[::-1]]))]
    else:
        t = T(m, p) if move.tag == "C4" else T(l, p)
        candidates = [compose(t, lam), compose(lam, t)]
    return next(res for res in candidates if res(p) == p)


def homology_of(link):
    return khovanov_homology(build_cube(build_good_diagram(link, DIR_Z)))


PENT = [(0, 0, 0), (2, 2, 0), (4, 0, 0), (4, -3, 0), (0, -3, 0)]
# second components beside PENT: the crossing on side 1-2 (C4) or 2-3 (C5)
# slides onto the new edge 1-3, or a strand leaves the triangle (CC)
C4_SECOND = [(F(-1, 2), F(4, 5), 1), (F(3, 2), F(-4, 5), 1),
             (F(3, 2), -5, 1), (-2, -5, 1), (-2, F(4, 5), 1)]
C5_SECOND = [(F(9, 2), F(4, 5), 1), (F(5, 2), F(-4, 5), 1),
             (F(5, 2), -5, 1), (6, -5, 1), (6, F(4, 5), 1)]
CC_SECOND = [(-1, F(6, 5), 1), (2, F(1, 2), 1), (5, F(6, 5), 1), (5, 4, 1),
             (-1, 4, 1)]
# an inner vertex is absorbed (CA), or its crossing migrates to the new
# edge (CB)
CA_LINK = [[(0, 0, 0), (2, 2, 0), (4, 0, 0), (F(5, 2), F(1, 2), 2),
            (-1, 1, 2), (-1, -2, 0)]]
CB_LINK = [[(0, 0, 0), (2, 2, 0), (4, 0, 0), (4, 8, 0), (-8, 4, 0)],
           [(2, -2, 2), (2, F(1, 2), 2), (-1, 1, 2), (-4, 1, 2),
            (-4, -4, 2), (3, -4, 2)]]


def two_component(second):
    link = PolygonalLink.from_lists([PENT, second])
    assert validate_link(link) == []
    return link


def c1_links():
    """The trefoil, and the trefoil with an extra vertex near the middle of
    edge (1,2): its removal is a crossing-free triangle move."""
    link = load_fixture("trefoil9")
    a, b = link.vertex(1), link.vertex(2)
    apex = tuple((a[i] + b[i]) / 2 + off
                 for i, off in enumerate((F(1, 50), F(1, 40), F(1, 100))))
    return link, deform_add_vertex(link, 0, 0, apex)


@pytest.fixture(scope="module")
def c1_setup():
    link, bigger = c1_links()
    return link, bigger, build_good_diagram(bigger, DIR_Z)


def classified_removals(tags):
    """(name, link, direction, diagram, move) for each removal with a tag
    in ``tags``: among those of kink5, of the C1 fixture's larger link and
    of seeded random diagrams."""
    sources = [("kink5", load_fixture("kink5"), DIR_Z),
               ("c1_links", c1_links()[1], DIR_Z)]
    for seed in (1, 4, 5, 7):
        _diagram, refined, direction = random_diagram(random.Random(seed))
        sources.append((f"random{seed}", refined, direction))
    for name, link, direction in sources:
        diagram = build_good_diagram(link, direction)
        for p in range(1, diagram.n + 1):
            try:
                move = classify_triangle_move(diagram, p, link=link)
            except MoveError:
                continue
            if move.tag in tags:
                yield name, link, direction, diagram, move


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
        link = two_component(C4_SECOND)
        diagram = build_good_diagram(link, DIR_Z)
        assert diagram.k == 2
        move = classify_triangle_move(diagram, 2, link=link)
        assert move.log_line() == "C4 1 2 3 [6 7]"

    def test_crossing_slides_off_second_side(self):
        link = two_component(C5_SECOND)
        diagram = build_good_diagram(link, DIR_Z)
        move = classify_triangle_move(diagram, 2, link=link)
        assert move.log_line() == "C5 1 2 3 [6 7]"

    def test_strand_leaves_triangle(self):
        link = two_component(CC_SECOND)
        diagram = build_good_diagram(link, DIR_Z)
        assert diagram.k == 2
        move = classify_triangle_move(diagram, 2, link=link)
        assert move.log_line() == "CC 1 2 3 [7 6 8]"

    def test_inner_vertex_absorbed(self):
        link = PolygonalLink.from_lists(CA_LINK)
        assert validate_link(link) == []
        diagram = build_good_diagram(link, DIR_Z)
        assert diagram.k == 1
        move = classify_triangle_move(diagram, 2, link=link)
        assert move.log_line() == "CA 1 2 3 [4 5]"

    def test_crossing_migrates_to_new_edge(self):
        link = PolygonalLink.from_lists(CB_LINK)
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


def outcome(module, diagram, p) -> str:
    """The log line of the removal of vertex p, or its error text."""
    try:
        return module.classify_triangle_move(diagram, p).log_line()
    except module.MoveError as exc:
        return f"error: {exc}"


def reference_outcome(diagram, p) -> str:
    try:
        return classify_reference(diagram, p).log_line()
    except MoveError as exc:
        return f"error: {exc}"


@pytest.fixture(scope="module")
def removals():
    """(diagram, p, the reference's outcome) for every vertex p, and the
    indices 0 and n + 1 next to them, of the seven fixtures along (0, 0, 1)
    and along the direction the CLI picks (but twist12), of random_diagram
    seeds 0-14 and of the links of the named cases in this module."""
    links = [load_fixture(name) for name in (
        "square", "two_squares", "trefoil9", "whitehead12", "kink5", "riii",
        "twist12")]
    diagrams = [good_diagram_auto(link)[0] for link in links[:-1]]
    links += [two_component(second) for second in (C4_SECOND, C5_SECOND,
                                                   CC_SECOND)]
    riii = TestThirdReidemeister
    links += [PolygonalLink.from_lists(comps) for comps in (
        CA_LINK, CB_LINK, [riii.X, riii.Y, riii.Z])]
    diagrams += [build_good_diagram(link, DIR_Z) for link in links]
    diagrams += [random_diagram(random.Random(seed))[0] for seed in range(15)]
    return [(d, p, reference_outcome(d, p))
            for d in diagrams for p in range(d.n + 2)]


def mismatches(module, removals) -> int:
    return sum(outcome(module, d, p) != expected for d, p, expected in removals)


class TestClassifierReference:
    """The classifier on the projection's int kernels against the Fraction
    classifier it replaced (``classify_reference``)."""

    def test_matches_reference(self, removals):
        assert len(removals) > 400
        assert mismatches(moves, removals) == 0
        tags = Counter(expected.split()[0] for _d, _p, expected in removals)
        assert set(tags) == {"C1", "C2", "C3", "C4", "C5", "CA", "CB", "CC",
                             "RIII", "error:"}
        errors = {re.sub(r"\d+", "N", expected)
                  for _d, _p, expected in removals if expected[0] == "e"}
        assert len(errors) >= 8

    @pytest.mark.parametrize("module, old, new", [
        # C3's far end taken to be m, as C2's is
        (moves, "far = m if first else l", "far = m"),
        # _meetings without its adjacent-edge branch, which yields the
        # adjacent_crossing witness: an adjacent edge is no longer known to
        # touch the new edge only at their shared vertex
        (geometry, 'if a1 in e2 or b1 in e2:', 'if False:'),
    ], ids=["c3_far_end", "adjacent_witness"])
    def test_mutant_caught(self, monkeypatch, removals, module, old, new):
        source = inspect.getsource(module)
        assert source.count(old) == 1
        mutant = types.ModuleType(module.__name__ + "_mutant")
        mutant.__package__ = "polykh"
        monkeypatch.setitem(sys.modules, mutant.__name__, mutant)
        exec(compile(source.replace(old, new), mutant.__name__, "exec"),
             mutant.__dict__)
        if module is geometry:
            monkeypatch.setattr(moves, "_meetings", mutant._meetings)
            mutant = moves
        assert mismatches(mutant, removals) > 0

    def test_no_fraction_kernels(self, whitehead_diagram):
        # every planar test of the classifier runs on ints: classifying
        # each vertex of whitehead12 calls none of the Fraction predicates
        names = {"seg2_intersection", "point_on_seg2", "_point_in_triangle2",
                 "point_in_triangle2", "_meetings"}
        calls = Counter()

        def profile(frame, event, _arg):
            if event == "call" and frame.f_code.co_name in names:
                calls[frame.f_code.co_name] += 1

        sys.setprofile(profile)
        try:
            for p in range(1, whitehead_diagram.n + 1):
                try:
                    classify_triangle_move(whitehead_diagram, p)
                except MoveError:
                    pass
        finally:
            sys.setprofile(None)
        assert set(calls) - {"_meetings"} == set()
        assert calls["_meetings"] > 0


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

    # the riii fixture with vertices 2, 5 and 8 moved across the triangle of
    # its three crossings: a polygonal Reidemeister III move, and the
    # quadruples it gives
    MOVED = {2: (0, 3, 3), 5: (3, F(-3, 2), 2), 8: (-3, -1, -1)}
    RELABELED = [(1, 2, 8, 9), (2, 3, 4, 5), (5, 6, 7, 8)]

    def riii_links(self):
        link = load_fixture("riii")
        link2 = PolygonalLink.from_lists(
            [[self.MOVED.get(gi, link.vertex(gi)) for gi in range(1, 10)]])
        assert validate_link(link2) == []
        return link, link2

    def test_relabel_map(self):
        # every two crossings share a vertex: in the pattern j1=i2, v1=j3,
        # w2=v3 before the move and J1=I2, W2=I3, V1=W3 after it
        link, link2 = self.riii_links()
        before = [cr.quadruple
                  for cr in build_good_diagram(link, DIR_Z).crossings]
        assert before == [(1, 2, 5, 6), (2, 3, 7, 8), (4, 5, 8, 9)]
        (_, j1, v1, _), (i2, _, _, w2), (_, j3, v3, _) = before
        assert j1 == i2 and v1 == j3 and w2 == v3
        (_, j1, v1, _), (i2, _, _, w2), (i3, _, _, w3) = (
            cr.quadruple for cr in build_good_diagram(link2, DIR_Z).crossings)
        assert j1 == i2 and w2 == i3 and v1 == w3

    def test_relabel_matches_rebuilt_diagram(self):
        link, link2 = self.riii_links()
        d = build_good_diagram(link, DIR_Z)
        d2 = build_good_diagram(link2, DIR_Z)
        assert [cr.quadruple for cr in d2.crossings] == self.RELABELED
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

    @pytest.mark.parametrize("delta", [1, -1])
    def test_circle_count_check_names_the_edge(self, c1_setup, monkeypatch,
                                               delta):
        _, bigger, diagram = c1_setup
        move = classify_triangle_move(diagram, 2, link=bigger)
        cube = build_cube(diagram)
        word = (0, 1, 1)
        message = miscount_message(transform_cube(cube, move)[0], word, delta)
        monkeypatch.setattr(moves, "_full_smoothing", miscounted(
            moves._full_smoothing, word, delta))
        with pytest.raises(CubeError, match=f"^{re.escape(message)}$"):
            transform_cube(cube, move)

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
        # the vanishing crossing sits on side l-p (C2) or p-m (C3)
        link = load_fixture("kink5")
        diagram = build_good_diagram(link, DIR_Z)
        cube = build_cube(diagram)
        for p, log in ((2, "C2 1 2 3 [4]"), (3, "C3 2 3 4 [1]")):
            move = classify_triangle_move(diagram, p, link=link)
            assert move.log_line() == log
            cube2, provenance = transform_cube(cube, move)
            assert any("discarded" in line for line in provenance)
            _move, _link2, diagram2 = apply_move(link, DIR_Z, p)
            rebuilt = build_cube(diagram2)
            assert set(cube2.vertices) == set(rebuilt.vertices)
            for word, vx in cube2.vertices.items():
                other = rebuilt.vertices[word].state.successor
                assert (cycle_partition(vx.state.successor)
                        == cycle_partition(other))

    def test_generator_for_vanishing_crossings(self):
        # on every kept-half vertex of a C2/C3 move the deformed cycle,
        # renumbered, is a circle of the rebuilt smoothing
        tags = set()
        for name, link, direction, diagram, move in classified_removals(
                ("C2", "C3")):
            tags.add(move.tag)
            p = move.p
            x, intact = ((move.l, move.m) if move.tag == "C2"
                         else (move.m, move.l))
            lc = next(cr.index for cr in diagram.crossings
                      if p in cr.quadruple)
            _move, _link2, diagram2 = apply_move(link, direction, p)
            rebuilt = build_cube(diagram2)
            kept = 0
            for word, vx in build_cube(diagram).vertices.items():
                sigma = vx.state.successor
                if sigma(p) == intact and sigma(intact) == p:
                    continue            # the discarded half
                kept += 1
                g = generator_reference(move, vx.state.successor)
                # walked from its least member, as cycle_partition's are
                cyc = next(c for c in renumbered(g, p).cycles()
                           if _renumber_index(x, p) in c)
                other = rebuilt.vertices[word[:lc - 1] + word[lc:]]
                assert (min(cyc, (cyc[0],) + tuple(reversed(cyc[1:])))
                        in cycle_partition(other.state.successor)), \
                    f"{name} {move.log_line()} {word}"
            assert kept == len(rebuilt.vertices)
        assert tags == {"C2", "C3"}

    def test_composite_moves_require_rebuild(self):
        link = PolygonalLink.from_lists(CA_LINK)
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
            g = generator_reference(move, vx.state.successor)
            renum = renumbered(g, move.p)
            cyc = cycle_containing(renum, _renumber_index(move.l, move.p))
            assert (min(cyc, (cyc[0],) + tuple(reversed(cyc[1:])))
                    in cycle_partition(rebuilt.vertices[word].state.successor))

    def test_generator_for_sliding_crossings(self):
        for second, tag in [(C4_SECOND, "C4"), (C5_SECOND, "C5")]:
            link = two_component(second)
            diagram = build_good_diagram(link, DIR_Z)
            move = classify_triangle_move(diagram, 2, link=link)
            assert move.tag == tag
            cube = build_cube(diagram)
            for vx in cube.vertices.values():
                g = generator_reference(move, vx.state.successor)
                assert g(move.p) == move.p


class TestPermutationAlgebraReference:
    def test_transform_matches_reference(self):
        # exact successor images, not up to circle reversal: an orientation
        # slip in the substitution step changes them
        tags = set()
        for name, _link, _dir, diagram, move in classified_removals(
                ("C1", "C2", "C3")):
            tags.add(move.tag)
            cube = build_cube(diagram)
            cube2, _provenance = transform_cube(cube, move)
            got = [(w, vx.state.successor) for w, vx in cube2.vertices.items()]
            assert got == substitution_reference(cube, move), \
                f"{name} {move.log_line()}"
            assert list(cube2.edges) == reference_edges(cube2.vertices)
            factors = {}
            for vx in cube2.vertices.values():
                assert all(factors.setdefault(g.cycle, g) is g
                           for g in vx.groups)
        assert tags == {"C1", "C2", "C3"}

    def test_generator_matches_reference(self):
        # C1, C4 and C5 keep every crossing, so each word names the same
        # smoothing before and after the move; at every vertex the
        # reference's deformed cycle, renumbered, is a circle of the
        # rebuilt smoothing
        tags = set()
        for name, link, direction, diagram, move in classified_removals(
                ("C1", "C4", "C5")):
            tags.add(move.tag)
            p = move.p
            _move, _link2, diagram2 = apply_move(link, direction, p)
            assert ([cr.quadruple for cr in diagram2.crossings]
                    == [cr.quadruple for cr in
                        moves._deformed_diagram(diagram, move).crossings])
            rebuilt = build_cube(diagram2)
            for word, vx in build_cube(diagram).vertices.items():
                sigma = vx.state.successor
                x = _renumber_index(sigma(p), p)
                # walked from its least member, as cycle_partition's are
                cyc = next(c for c in renumbered(
                    generator_reference(move, sigma), p).cycles() if x in c)
                assert (min(cyc, (cyc[0],) + tuple(reversed(cyc[1:])))
                        in cycle_partition(rebuilt.vertices[word].state
                                           .successor)), \
                    f"{name} {move.log_line()} {word}"
        assert tags == {"C1", "C4", "C5"}


class TestApplyMove:
    def test_crossing_deltas(self):
        fixtures = [
            (load_fixture("kink5"), 2, "C2", -1),
            (two_component(C4_SECOND), 2, "C4", 0),
            (two_component(C5_SECOND), 2, "C5", 0),
            (two_component(CC_SECOND), 2, "CC", -2),
            (PolygonalLink.from_lists(CA_LINK), 2, "CA", -1),
            (PolygonalLink.from_lists(CB_LINK), 2, "CB", 0),
        ]
        for link, p, tag, delta in fixtures:
            before = build_good_diagram(link, DIR_Z)
            move, link2, diagram2 = apply_move(link, DIR_Z, p)
            assert move.tag == tag
            assert diagram2.k - before.k == delta
            assert homology_of(link) == homology_of(link2)


HALF = F(1, 2)
# removing vertex 2 of PENT makes the new edge 1-3 pass through the crossing
# of the first edges of the other two components: a triple point
TRIPLE = [PENT,
          [(3 * HALF, -HALF, 1), (5 * HALF, HALF, 1), (6, HALF, 1),
           (6, -5, 1), (3 * HALF, -5, 1)],
          [(3 * HALF, HALF, 2), (5 * HALF, -HALF, 2), (5 * HALF, -6, 2),
           (-1, -6, 2), (-1, HALF, 2)]]
# the new edge 1-3 would meet the second component's first edge in 3D
PIERCED = [PENT, [(2, -1, -1), (2, 1, 1), (6, 5, 1), (7, -4, -1)]]
# the image of the new edge 1-3 would overlap that of the second
# component's first edge, above it; ``_project`` finds that edge's first
# vertex on the new edge first
SHADOWED = [PENT, [(1, 0, 1), (3, 0, 1), (2, 1, 2)]]


@pytest.fixture(scope="module")
def move_sources():
    """(link, direction) with a good diagram: the links of the named cases
    in this module, TRIPLE refined, and the refined links of random_diagram
    seeds 0-7; then, after each, the links of up to three seeded insertions
    on it that keep the diagram good."""
    riii = TestThirdReidemeister
    links = [c1_links()[1], load_fixture("kink5")]
    links += [two_component(second) for second in (C4_SECOND, C5_SECOND,
                                                   CC_SECOND)]
    links += [PolygonalLink.from_lists(comps) for comps in (
        CA_LINK, CB_LINK, [riii.X, riii.Y, riii.Z], PIERCED, SHADOWED)]
    sources = [(link, DIR_Z) for link in links]
    sources.append(good_diagram_auto(PolygonalLink.from_lists(TRIPLE),
                                     DIR_Z)[1:])
    sources += [random_diagram(random.Random(seed))[1:] for seed in range(8)]
    out = []
    for i, (link, direction) in enumerate(sources):
        out.append((link, direction))
        bigger = [outcome_of(reference_add_vertex, link, *args)
                  for args in seeded_apexes(link, random.Random(i), 8)]
        bigger = [b for b in bigger if not isinstance(b, str) and not
                  isinstance(outcome_of(build_good_diagram, b, direction),
                                 str)]
        out += [(b, direction) for b in bigger[:3]]
    return out


class TestLocalApplyMove:
    """``apply_move``, which projects its input once and makes the deformed
    projection from that one, against projecting both links whole."""

    def test_matches_reference(self, move_sources):
        tags, errors = Counter(), set()
        for link, direction in move_sources:
            for p in range(1, link.n + 1):
                expected = outcome_of(reference_apply_move, link, direction, p)
                assert outcome_of(apply_move, link, direction, p) == expected
                if isinstance(expected, str):
                    errors.add(re.sub(r"\b\d+\b", "N", expected))
                else:
                    tags[expected[0].tag] += 1
        assert set(tags) == {"C1", "C2", "C3", "C4", "C5", "CA", "CB", "CC"}
        assert sum(tags.values()) > 100
        assert ("MoveError: triangle obstructed in 3D: removal breaks link "
                "validity: edges (N,N) and (N,N) intersect away from a "
                "common endpoint") in errors

    def test_diagram_is_rebuilt_one(self, move_sources):
        # every legal removal's diagram is the whole deformed link's
        for link, direction in move_sources[:12]:
            for p in range(1, link.n + 1):
                try:
                    _move, link2, diagram2 = apply_move(link, direction, p)
                except MoveError:
                    continue
                assert diagram2 == build_good_diagram(link2, direction)


def projection_cases(sources):
    """(projection, link with vertex p removed, p, the witness and the
    projection that ``_project`` makes of that link) for every vertex p of
    each source, and of TRIPLE along (0, 0, 1), whose removal leaves a
    valid link.  Removing vertex 2 of TRIPLE leaves a triple point."""
    for link, direction in sources + [
            (PolygonalLink.from_lists(TRIPLE), DIR_Z)]:
        proj = geometry.project_link(link, direction)
        for p in range(1, link.n + 1):
            link2 = link.with_vertex_removed(p)
            if validate_link(link2) == []:
                witness, proj2 = geometry._project(link2, direction)
                yield proj, link2, p, witness, proj2


def projection_mismatches(module, cases) -> int:
    """Where ``module``'s deformed projection differs from the whole one, in
    equality or in the vertex images, which equality does not compare."""
    count = 0
    for proj, link2, p, _witness, proj2 in cases:
        got = module._deformed_projection(proj, link2, p)
        count += got != proj2 or (
            got is not None and got.points2d != proj2.points2d)
    return count


@pytest.fixture(scope="module")
def removed_projections(move_sources):
    return list(projection_cases(move_sources))


class TestDeformedProjection:
    def test_matches_whole_projection(self, removed_projections):
        assert projection_mismatches(moves, removed_projections) == 0
        witnesses = Counter(w[0] if w else None
                            for *_rest, w, _proj2 in removed_projections)
        assert witnesses[None] > 500
        assert {"triple_point", "vertex_on_edge"} <= set(witnesses)

    @pytest.mark.parametrize("old, new", [
        # the kept crossings keep their old edge numbers
        ("return [RawCrossing(*[tuple([g + step * (g > g0) for g in e])",
         "return [RawCrossing(*[tuple([g for g in e])"),
        # two crossings at one point of the new edge go unseen
        ("if (t // k, den // k) in params:", "if False:"),
        # the spliced crossings come in (over edge, under edge) order
        ("key=lambda cr: sorted((cr.over_edge, cr.under_edge))",
         "key=lambda cr: (cr.over_edge, cr.under_edge)"),
    ], ids=["renumbering", "triple_point", "sort_key"])
    def test_mutant_caught(self, monkeypatch, removed_projections, old, new):
        source = inspect.getsource(geometry)
        assert source.count(old) == 1
        mutant = types.ModuleType("polykh.geometry_mutant")
        mutant.__package__ = "polykh"
        monkeypatch.setitem(sys.modules, mutant.__name__, mutant)
        exec(compile(source.replace(old, new), mutant.__name__, "exec"),
             mutant.__dict__)
        for name in ("_crossings_along", "_renumbered_crossings", "_spliced"):
            monkeypatch.setattr(moves, name, getattr(mutant, name))
        assert projection_mismatches(moves, removed_projections) > 0
