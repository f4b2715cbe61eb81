"""The operations of each workload.

Every call into polykh goes through ``t.call`` with the name of the span
(and of the per-layer metric, without its ``_s``), and the counts are
recorded right at those calls.  The library is called in the order the
``polykh homology``, ``jones`` and ``verify`` subcommands use.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from polykh import (find_regular_direction, refine_to_good, build_good_diagram,
                    build_cube, deform_add_vertex, deform_remove_vertex,
                    jones_state_sum, build_complex, homology)
from polykh.cube import (initial_state, smooth_crossing_theorem,
                         smooth_crossing_trace)
from polykh.diagram import DiagramError
from polykh.geometry import GeometryError
from polykh.moves import MoveError, classify_triangle_move, transform_cube, \
    apply_move

import checks
from checks import require
from inputs import (DIR_Z, HOMOLOGY_CAP, corpus_inputs, cube_moves_inputs,
                    kh_torus_inputs, mirror)

# the cases transform_cube documents closed substitutions for
CLOSED_TAGS = ("C1", "C2", "C3")
INSERTION_ATTEMPTS = 400


# ---------------------------------------------------------------------------
# layer calls with their counts


def refine(t, link, direction):
    refined = t.call("geometry.refine", refine_to_good, link, direction)
    t.count("geometry.vertices_added", refined.n - link.n)
    return refined


def diagram_of(t, link, direction):
    diagram = t.call("diagram.build", build_good_diagram, link, direction)
    t.count("diagram.crossings", diagram.k)
    return diagram


def cube_of(t, diagram, order=None):
    cube = t.call("cube.build", build_cube, diagram, order)
    t.count("cube.vertices", len(cube.vertices))
    t.note_cube(diagram, cube.order)
    return cube


def jones_of(t, cube):
    return t.call("khovanov.jones", jones_state_sum, cube).coeffs


def homology_of(t, cube):
    cx = t.call("khovanov.complex", build_complex, cube)
    if t.enabled:
        t.count("khovanov.generators", sum(len(b) for b in cx.basis.values()))
        t.count("khovanov.nonzeros",
                sum(len(d) for d in cx.differentials.values()))
        t.maximum("khovanov.max_block_rows", max_block_rows(cx))
    return t.call("khovanov.homology", homology, cx)


def descend(diagram, order):
    """Time the formula and the trace oracle apart, along build_cube's
    descent: (formula seconds, trace seconds, resolution steps)."""
    clock = time.perf_counter
    formula = trace = 0.0
    steps = 0
    stack = [(initial_state(diagram), 0)]
    while stack:
        state, depth = stack.pop()
        if depth == diagram.k:
            continue
        l = order[depth]
        for choice in (0, 1):
            t0 = clock()
            traced = smooth_crossing_trace(state, l, choice)
            t1 = clock()
            state2 = smooth_crossing_theorem(state, l, choice)
            t2 = clock()
            trace += t1 - t0
            formula += t2 - t1
            steps += 1
            require(traced.successor == state2.successor,
                    f"formula and trace differ at {state.word}, crossing {l}")
            stack.append((state2, depth + 1))
    return formula, trace, steps


def max_block_rows(cx) -> int:
    """Rows of the largest (i, j) block that the rank computation reduces."""
    best = 0
    for i, d in cx.differentials.items():
        rows: dict[int, set] = {}
        for (row, col) in d:
            rows.setdefault(cx.j_grading[i][col], set()).add(row)
        best = max([best] + [len(r) for r in rows.values()])
    return best


# ---------------------------------------------------------------------------
# kh-torus


def kh_torus_ops(inputs):
    def op(link, n):
        def run(t):
            diagram = diagram_of(t, refine(t, link, DIR_Z), DIR_Z)
            cube = cube_of(t, diagram)
            table = homology_of(t, cube)
            checks.check_torus(diagram, table, jones_of(t, cube), n)
        return run
    return [(name, op(link, n)) for name, link, n in inputs]


# ---------------------------------------------------------------------------
# corpus-refine


def pipeline(t, link, direction):
    """Refine, diagram, cube, Jones, and homology below the crossing cap."""
    refined = refine(t, link, direction)
    diagram = diagram_of(t, refined, direction)
    cube = cube_of(t, diagram)
    j_hat = jones_of(t, cube)
    table = homology_of(t, cube) if diagram.k <= HOMOLOGY_CAP else None
    if table is not None:
        checks.check_euler(table, j_hat)
    return refined, diagram, table, j_hat


def corpus_ops(inputs):
    def op(g, link):
        def run(t):
            d1 = t.call("geometry.direction", find_regular_direction, link,
                        seed=g)
            d2 = t.call("geometry.direction", find_regular_direction, link,
                        seed=g + 1)
            refined, diagram, table, j_hat = pipeline(t, link, d1)
            checks.check_good_diagram(diagram)
            _r2, diagram2, table2, j_hat2 = pipeline(t, link, d2)
            checks.check_good_diagram(diagram2)
            if table is not None and table2 is not None:
                require(table2 == table, f"link {g}: homology depends on the "
                        f"projection direction ({d1} vs {d2})")
            require(j_hat2 == j_hat, f"link {g}: Jones polynomial depends on "
                    f"the projection direction ({d1} vs {d2})")
            _rm, _dm, mtable, mj_hat = pipeline(
                t, mirror(refined), (d1[0], d1[1], -d1[2]))
            checks.check_mirror(table, mtable, j_hat, mj_hat)
        return run
    return [(f"link{g}", op(g, link)) for g, link in inputs]


# ---------------------------------------------------------------------------
# cube-moves


def cube_moves_ops(items):
    reference: dict[str, object] = {}

    def build(item, order):
        def run(t):
            cube = cube_of(t, item.diagram, order)
            checks.check_cube_circles(cube)
            if item.name in reference:
                checks.check_same_cube(reference[item.name], cube,
                                       f"{item.name} order {order}")
            else:
                reference[item.name] = cube
        return run

    def move(item, seed, free_edge):
        return lambda t: round_trip(t, item, random.Random(seed), free_edge)

    ops = []
    for item in items:
        ops += [(f"{item.name}/order{o}", build(item, order))
                for o, order in enumerate(item.orders)]
        ops += [(f"{item.name}/move{m}", move(item, seed, m % 2 == 0))
                for m, seed in enumerate(item.move_seeds)]
    return ops


def round_trip(t, item, rng, free_edge: bool):
    """Insert a seeded vertex, classify its removal, transform and rebuild.

    The vertex goes on an edge without a crossing (``free_edge``) or on a
    crossed one, which makes a crossing-free move or a crossing slide the
    likely case, so every round makes about the same mix of transformed and
    rebuilt-only cubes.  Insertions are drawn until one is a legal move.
    """
    link, direction = item.link, item.direction
    crossed = {e for cr in item.diagram.crossings
               for e in ((cr.i, cr.j), (cr.v, cr.w))}
    edges = [g for g in range(1, link.n + 1)
             if ((g, link.successor(g)) in crossed) != free_edge]
    edges = edges or list(range(1, link.n + 1))
    for _ in range(INSERTION_ATTEMPTS):
        gl = rng.choice(edges)
        ci = link.component_of(gl)
        pos = gl - link.component_range(ci)[0]
        a, b = link.vertex(gl), link.vertex(link.successor(gl))
        lam = Fraction(rng.randrange(1, 8), 8)
        off = [Fraction(rng.randrange(-4, 5), 16) for _ in range(3)]
        apex = tuple(a[x] + lam * (b[x] - a[x]) + off[x] for x in range(3))
        t.count("geometry.insertions")
        try:
            bigger = t.call("geometry.deform", deform_add_vertex, link, ci,
                            pos, apex)
        except GeometryError:
            continue        # obstructed, or an apex on the edge's line
        t.count("geometry.insertions_constructible")
        try:
            big_diagram = diagram_of(t, bigger, direction)
        except (GeometryError, DiagramError):
            continue        # the insertion broke regularity or goodness
        p = gl + 1
        back = t.call("geometry.deform", deform_remove_vertex, bigger, p)
        require(back == link, f"{item.name}: removing vertex {p} does not "
                "restore the link")
        try:
            move = t.call("moves.classify", classify_triangle_move,
                          big_diagram, p, link=bigger)
        except MoveError:
            continue        # not a supported triangle move
        t.count("moves.classified")
        big_cube = cube_of(t, big_diagram)
        try:
            transformed, _prov = t.call("moves.transform", transform_cube,
                                        big_cube, move)
        except MoveError:
            if move.tag in CLOSED_TAGS:
                raise
            transformed = None      # no closed substitution: rebuild only
        _move, link2, diagram2 = t.call("moves.apply", apply_move, bigger,
                                        direction, p)
        require(link2 == link, f"{item.name}: apply_move did not restore "
                "the link")
        rebuilt = cube_of(t, diagram2)
        if transformed is not None:
            t.count("moves.closed")
            checks.check_same_cube(transformed, rebuilt,
                                   f"{item.name} {move.log_line()}")
        require(jones_of(t, big_cube) == jones_of(t, rebuilt),
                f"{item.name}: Jones polynomial changed by {move.log_line()}")
        return
    raise RuntimeError(f"{item.name}: no legal triangle move in "
                       f"{INSERTION_ATTEMPTS} insertions")


WORKLOADS = {
    "kh-torus": (kh_torus_inputs, kh_torus_ops),
    "corpus-refine": (corpus_inputs, corpus_ops),
    "cube-moves": (cube_moves_inputs, cube_moves_ops),
}
