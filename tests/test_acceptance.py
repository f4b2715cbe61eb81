"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The printed lines bypass pytest capture so the report is always visible.
"""

import functools
import itertools
import random
import time
from fractions import Fraction as F

import pytest

from polykh import (PolygonalLink, validate_link, find_regular_direction,
                    refine_to_good, deform_add_vertex, deform_remove_vertex,
                    load_fixture, build_good_diagram, good_diagram_auto,
                    build_cube, jones_state_sum, build_complex,
                    khovanov_homology, euler_characteristic, LaurentPoly)
from polykh.cube import initial_state, smooth_crossing_trace, \
    smooth_crossing_theorem
from polykh.moves import classify_triangle_move, transform_cube, apply_move
from polykh.geometry import GeometryError, DeformationError, project_link, \
    is_good_projection
from polykh.diagram import DiagramError

from conftest import (DIR_Z, cycle_partition, parse_cycles, random_link,
                      random_diagram, torus_table)


REPORT: list[str] = []


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                REPORT.append(f"FAIL {label}")
                raise
            REPORT.append(f"PASS {label} ({time.perf_counter() - start:.1f}s)")
        return wrapper
    return deco


@criterion("criterion-1 trefoil crossing table")
def test_criterion_1_trefoil_crossing_table():
    start = time.perf_counter()
    diagram = build_good_diagram(load_fixture("trefoil9"), DIR_Z)
    assert [(cr.i, cr.j, cr.v, cr.w) for cr in diagram.crossings] == [
        (3, 4, 8, 9), (6, 7, 2, 3), (9, 1, 5, 6)]
    assert [cr.sign for cr in diagram.crossings] == [1, 1, 1]
    assert time.perf_counter() - start < 1.0


@criterion("criterion-2 trefoil cube vertices")
def test_criterion_2_trefoil_cube():
    start = time.perf_counter()
    diagram = build_good_diagram(load_fixture("trefoil9"), DIR_Z)
    cube = build_cube(diagram, order=(1, 2, 3))
    expected = {
        (0, 0, 0): "(1,2,7,8,4,5)(6,3,9)",
        (0, 0, 1): "(1,6,3,9,5,4,8,7,2)",
        (0, 1, 0): "(1,5,4,8,7,3,9,6,2)",
        (0, 1, 1): "(1,6,2)(3,9,5,4,8,7)",
        (1, 0, 0): "(1,5,4,9,6,3,8,7,2)",
        (1, 0, 1): "(1,6,3,8,7,2)(4,9,5)",
        (1, 1, 0): "(1,5,4,9,6,2)(3,8,7)",
        (1, 1, 1): "(1,6,2)(3,8,7)(4,9,5)",
    }
    for word, text in expected.items():
        got = cube.vertices[word].state.successor
        assert cycle_partition(got) == cycle_partition(parse_cycles(text, 9))
    # two vertices match verbatim along resolution order (1,2,3)
    assert cube.vertices[(0, 0, 0)].state.successor == parse_cycles(
        "(1,2,7,8,4,5)(6,3,9)", 9)
    assert cube.vertices[(1, 1, 0)].state.successor == parse_cycles(
        "(1,5,4,9,6,2)(3,8,7)", 9)
    assert time.perf_counter() - start < 1.0


@criterion("criterion-3 whitehead vertex group")
def test_criterion_3_whitehead_vertex_group():
    start = time.perf_counter()
    diagram = build_good_diagram(load_fixture("whitehead12"), DIR_Z)
    cube = build_cube(diagram)
    vx = cube.vertices[(1, 1, 0, 1, 1)]
    assert cycle_partition(vx.state.successor) == cycle_partition(
        parse_cycles("(1,9,3,8,10,5,6,12,2)(4,11,7)", 12))
    assert sorted(len(g.cycle) for g in vx.groups) == [3, 9]   # D9 x D3
    assert sorted(g.group_order for g in vx.groups) == [6, 18]
    assert time.perf_counter() - start < 1.0


@criterion("criterion-4 closed formulas match trace oracle")
def test_criterion_4_theorem_equals_trace():
    start = time.perf_counter()
    rng = random.Random(4)

    def check_all_steps(diagram, orders):
        for order in orders:
            def descend(state, depth):
                if depth == diagram.k:
                    return
                l = order[depth]
                for choice in (0, 1):
                    traced = smooth_crossing_trace(state, l, choice)
                    formula = smooth_crossing_theorem(state, l, choice)
                    assert traced.successor == formula.successor
                    descend(formula, depth + 1)
            descend(initial_state(diagram), 0)

    def orders_for(k):
        if k <= 4:
            return list(itertools.permutations(range(1, k + 1)))
        sample = []
        for _ in range(10):
            order = list(range(1, k + 1))
            rng.shuffle(order)
            sample.append(tuple(order))
        return sample

    for name in ("square", "two_squares", "trefoil9", "whitehead12",
                 "kink5", "riii"):
        diagram = build_good_diagram(load_fixture(name), DIR_Z)
        check_all_steps(diagram, orders_for(diagram.k))

    for _ in range(100):
        diagram, _refined, _direction = random_diagram(rng, k_max=6)
        assert diagram.k <= 6
        check_all_steps(diagram, orders_for(diagram.k))

    assert time.perf_counter() - start < 60.0


@criterion("criterion-5 homology pipeline and trefoil values")
def test_criterion_5_khovanov_pipeline():
    start = time.perf_counter()
    rng = random.Random(5)
    corpus = [build_good_diagram(load_fixture(n), DIR_Z)
              for n in ("square", "two_squares", "trefoil9", "whitehead12",
                        "kink5", "riii")]
    corpus += [random_diagram(rng)[0] for _ in range(10)]
    for diagram in corpus:
        cube = build_cube(diagram)
        cx = build_complex(cube)          # raises unless d^2 == 0 exactly
        j_hat = jones_state_sum(cube)
        assert cx.chain_euler() == j_hat
        assert euler_characteristic(khovanov_homology(cube)) == j_hat

    trefoil_cube = build_cube(build_good_diagram(load_fixture("trefoil9"),
                                                 DIR_Z))
    assert khovanov_homology(trefoil_cube) == {
        (0, 1): 1, (0, 3): 1, (2, 5): 1, (3, 9): 1}
    assert jones_state_sum(trefoil_cube) == LaurentPoly(
        {1: 1, 3: 1, 5: 1, 9: -1})
    assert time.perf_counter() - start < 10.0


@criterion("criterion-6 move invariance")
def test_criterion_6_move_invariance():
    start = time.perf_counter()
    rng = random.Random(6)

    def round_trips(link, count):
        base = khovanov_homology(build_cube(build_good_diagram(
            refine_to_good(link, DIR_Z), DIR_Z)))
        done, attempts = 0, 0
        while done < count and attempts < 60 * count:
            attempts += 1
            ci = rng.randrange(len(link.components))
            lo = 1 + sum(len(c) for c in link.components[:ci])
            pos = rng.randrange(len(link.components[ci]))
            gl = lo + pos
            gm = link.successor(gl)
            a, b = link.vertex(gl), link.vertex(gm)
            lam = F(rng.randrange(1, 8), 8)
            off = [F(rng.randrange(-4, 5), 16) for _ in range(3)]
            apex = tuple(a[i] + lam * (b[i] - a[i]) + off[i] for i in range(3))
            try:
                bigger = deform_add_vertex(link, ci, pos, apex)
                diagram = build_good_diagram(refine_to_good(bigger, DIR_Z),
                                             DIR_Z)
            except (GeometryError, DiagramError):
                continue
            if diagram.n != bigger.n:
                continue
            assert khovanov_homology(build_cube(diagram)) == base
            smaller = deform_remove_vertex(bigger, gl + 1)
            d2 = build_good_diagram(refine_to_good(smaller, DIR_Z), DIR_Z)
            assert khovanov_homology(build_cube(d2)) == base
            done += 1
        assert done == count, f"only {done}/{count} deformations constructible"

    round_trips(load_fixture("trefoil9"), 15)
    round_trips(load_fixture("square"), 10)

    # algebraic cube updates agree with full rebuilds
    link = load_fixture("trefoil9")
    a, b = link.vertex(1), link.vertex(2)
    apex = tuple((a[i] + b[i]) / 2 + off
                 for i, off in enumerate((F(1, 50), F(1, 40), F(1, 100))))
    bigger = deform_add_vertex(link, 0, 0, apex)
    diagram = build_good_diagram(bigger, DIR_Z)
    move = classify_triangle_move(diagram, 2, link=bigger)
    assert move.tag == "C1"
    cube2, _prov = transform_cube(build_cube(diagram), move)
    _m, _l2, rebuilt_diagram = apply_move(bigger, DIR_Z, 2)
    rebuilt = build_cube(rebuilt_diagram)
    for word, vx in cube2.vertices.items():
        assert (cycle_partition(vx.state.successor)
                == cycle_partition(rebuilt.vertices[word].state.successor))

    kink = load_fixture("kink5")
    kdiag = build_good_diagram(kink, DIR_Z)
    kmove = classify_triangle_move(kdiag, 2, link=kink)
    assert kmove.tag == "C2"
    half, _prov = transform_cube(build_cube(kdiag), kmove)
    _m, _l2, kd2 = apply_move(kink, DIR_Z, 2)
    krebuilt = build_cube(kd2)
    assert set(half.vertices) == set(krebuilt.vertices)
    for word, vx in half.vertices.items():
        assert (cycle_partition(vx.state.successor)
                == cycle_partition(krebuilt.vertices[word].state.successor))
    assert time.perf_counter() - start < 60.0


@criterion("criterion-7 refinement to good diagrams")
def test_criterion_7_refinement():
    start = time.perf_counter()
    rng = random.Random(7)
    for _ in range(100):
        link = random_link(rng)
        direction = find_regular_direction(link, seed=rng.randrange(1 << 20))
        refined = refine_to_good(link, direction)
        assert validate_link(refined) == []
        assert is_good_projection(project_link(refined, direction))
        diagram = build_good_diagram(refined, direction)
        per_edge = {}
        for cr in diagram.crossings:
            for e in ((cr.i, cr.j), (cr.v, cr.w)):
                per_edge[e] = per_edge.get(e, 0) + 1
        assert all(c <= 1 for c in per_edge.values())
    assert time.perf_counter() - start < 30.0


@pytest.mark.slow
@criterion("criterion-8 twelve-crossing stress")
def test_criterion_8_twelve_crossing_stress(capsys):
    from polykh.cli import main
    start = time.perf_counter()
    from polykh import fixture_path
    code = main(["homology", str(fixture_path("twist12")), "--dir", "0,0,1"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    rows = [map(int, line.split("\t")) for line in out.strip().splitlines()]
    table = {(i, j): dim for i, j, dim in rows}
    # twist12 is T(2,12) with 12 negative crossings along (0, 0, 1)
    assert code == 0 and table == torus_table(12, -1)
    assert elapsed < 20.0
