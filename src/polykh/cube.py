"""The cube of smoothings of a good diagram.

Every crossing of a good diagram can be resolved in two planar ways; a word
over {0,1,2} (2 = still crossed) names a partial smoothing.  The oriented
circles of a smoothing are encoded as a successor permutation sigma on the
global vertex indices: its cycles are the circles, the cycle direction is the
orientation.  Each resolution step is computed twice — once by closed
permutation formulas (composition with a transposition, possibly conjugated
by a dihedral reflection) and once by direct graph tracing — and the two must
agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .diagram import GoodDiagram, CrossingRecord
from .perm import (Permutation, DihedralFactor, compose, conjugate,
                   reflection_in)


class CubeError(ValueError):
    pass


class CubeMismatchError(CubeError):
    """Theorem formula and trace oracle disagree; carries the offending path."""

    def __init__(self, message, word=None, crossing=None, choice=None):
        super().__init__(message)
        self.word = word
        self.crossing = crossing
        self.choice = choice


@dataclass(frozen=True)
class SmoothingState:
    """A (partial) smoothing: word over {0,1,2} plus oriented circles."""

    diagram: GoodDiagram
    word: tuple[int, ...]
    successor: Permutation

    @property
    def resolved(self) -> bool:
        return all(x != 2 for x in self.word)

    @property
    def r(self) -> int:
        """Number of 1-letters among resolved positions."""
        return sum(1 for x in self.word if x == 1)

    @property
    def c(self) -> int:
        """Number of circles."""
        return len(self.successor.cycles())

    def cycle_partition(self) -> frozenset:
        """Unoriented, unanchored circles: for orientation-insensitive equality."""
        out = set()
        for cyc in self.successor.cycles():
            fwd = cyc
            rev = (cyc[0],) + tuple(reversed(cyc[1:]))
            out.add(min(fwd, rev))
        return frozenset(out)


def initial_state(diagram: GoodDiagram) -> SmoothingState:
    """Word of all 2s; sigma = product of the component-successor cycles."""
    word = (2,) * diagram.k
    return SmoothingState(diagram, word, diagram.component_permutation())


def _crossing_arcs(crossing: CrossingRecord, choice: int):
    """The two index pairs joined by the given resolution of the crossing.

    With the overcrossing edge i->j above v->w, the resolution that connects
    i to w and v to j is the 0-smoothing of a positive crossing and the
    1-smoothing of a negative one; the other pairing (i-v, j-w) is its
    complement.
    """
    i, j, v, w = crossing.quadruple
    if (choice == 0) == (crossing.sign == 1):
        return ((i, w), (v, j))
    return ((i, v), (j, w))


def _locate_arc(sigma: Permutation, a: int, b: int) -> tuple[int, int]:
    """The directed edge of sigma joining a and b, as (source, target)."""
    if sigma(a) == b:
        return (a, b)
    if sigma(b) == a:
        return (b, a)
    raise CubeError(f"no edge between {a} and {b} in the current smoothing")


def smooth_crossing_trace(state: SmoothingState, l: int,
                          choice: int) -> SmoothingState:
    """Resolve crossing l by graph surgery and re-trace the affected circles.

    The crossing's two arcs are removed and replaced by the pairing that the
    choice selects; the circle through i_l is re-walked starting with the new
    edge out of i_l, then (if separate) the circle through v_l starting at
    v_l, and any remaining re-wired circle keeps the direction of its
    surviving directed edges.  Only the circles of sigma through i_l and v_l
    are re-wired; every other vertex keeps its image under sigma.
    """
    if not 1 <= l <= state.diagram.k:
        raise CubeError(f"no crossing {l} in a {state.diagram.k}-crossing diagram")
    crossing = state.diagram.crossings[l - 1]
    if state.word[l - 1] != 2:
        raise CubeError(f"crossing {l} already resolved")
    i, j, v, w = crossing.quadruple
    sigma = state.successor
    img = sigma.images
    removed = {_locate_arc(sigma, i, j), _locate_arc(sigma, v, w)}
    touched = sigma.cycle_containing(i)
    if v not in touched:
        touched += sigma.cycle_containing(v)

    # 2-regular multigraph on the touched vertices: surviving directed edges
    # plus the two new arcs
    edges = []  # (a, b, directed)
    for x in touched:
        if (x, img[x - 1]) not in removed:
            edges.append((x, img[x - 1], True))
    arcs = _crossing_arcs(crossing, choice)
    new_ids = []
    for (a, b) in arcs:
        new_ids.append(len(edges))
        edges.append((a, b, False))
    ends: dict[int, list[int]] = {x: [] for x in touched}
    for eid, (a, b, _) in enumerate(edges):
        ends[a].append(eid)
        ends[b].append(eid)
    assert all(len(e) == 2 for e in ends.values())

    succ = list(img)
    seen = set()

    def walk(start: int, eid: int) -> None:
        cur, e = start, eid
        while True:
            a, b, _ = edges[e]
            nxt = b if cur == a else a
            succ[cur - 1] = nxt
            seen.add(cur)
            e1, e2 = ends[nxt]
            e = e2 if e1 == e else e1
            cur = nxt
            if cur == start:
                break

    # i starts a new edge
    i_arc = next(eid for eid in new_ids if i in edges[eid][:2])
    walk(i, i_arc)
    if v not in seen:
        v_arc = next(eid for eid in new_ids if v in edges[eid][:2])
        walk(v, v_arc)
    # a further re-wired circle keeps its surviving directions; it holds
    # neither i nor v, so it arises only when sigma runs i->j ... w->v and
    # the pairing is (i,v),(j,w): the j-w circle
    for x in touched:
        if x in seen:
            continue
        eid = next((e for e in ends[x] if edges[e][2] and edges[e][0] == x), None)
        if eid is None:
            # no outgoing directed edge here; the walk reaches x from a
            # vertex of its circle that has one
            continue
        walk(x, eid)
    if len(seen) != len(touched):
        raise CubeError("orientation trace left a circle without direction")

    word = state.word[:l - 1] + (choice,) + state.word[l:]
    return SmoothingState(state.diagram, word, Permutation(succ))


def _reverse_cycles_touching(perm: Permutation, members) -> Permutation:
    """Reverse every cycle of ``perm`` that contains a member of ``members``."""
    img = list(perm.images)
    done = set()
    for x in members:
        if x in done:
            continue
        cyc = perm.cycle_containing(x)
        done.update(cyc)
        for y in cyc:
            img[perm.images[y - 1] - 1] = y
    return Permutation(img)


def smooth_crossing_theorem(state: SmoothingState, l: int,
                            choice: int) -> SmoothingState:
    """Resolve crossing l via the closed permutation formulas.

    Dispatch is on the current direction of the two crossing arcs (sigma maps
    i->j or j->i, and v->w or w->v) and on whether i and v share a cycle.
    One of the two choices is a single transposition composition; the other
    additionally conjugates by a dihedral reflection.
    """
    if not 1 <= l <= state.diagram.k:
        raise CubeError(f"no crossing {l} in a {state.diagram.k}-crossing diagram")
    crossing = state.diagram.crossings[l - 1]
    if state.word[l - 1] != 2:
        raise CubeError(f"crossing {l} already resolved")
    if choice not in (0, 1):
        raise CubeError(f"choice must be 0 or 1, got {choice}")
    i, j, v, w = crossing.quadruple
    eps = crossing.sign
    sigma = state.successor
    n = sigma.n
    T = lambda a, b: Permutation.transposition(n, a, b)
    same = v in sigma.cycle_containing(i)

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
        # the published identities fix the reversed orientation of the parent;
        # re-reverse the circles through i and v so that i starts a new edge
        res = _reverse_cycles_touching(res, (i, v))
    elif sigma(j) == i and sigma(w) == v:
        if (choice == 0) == (eps == 1):
            res = compose(sigma, T(j, w))
        elif same:
            res = conjugate(sigma, reflection_in(compose(sigma, T(j, w)), j, v))
        else:
            res = conjugate(compose(sigma, T(j, w)), reflection_in(sigma, v, w))
        res = _reverse_cycles_touching(res, (i, v))
    else:
        raise CubeError(
            f"crossing {l}: neither arc of ({i},{j},{v},{w}) present in sigma")

    word = state.word[:l - 1] + (choice,) + state.word[l:]
    return SmoothingState(state.diagram, word, res)


def resolve(state: SmoothingState, l: int, choice: int) -> SmoothingState:
    """Theorem-formula resolution, cross-checked against the trace oracle."""
    traced = smooth_crossing_trace(state, l, choice)
    theorem = smooth_crossing_theorem(state, l, choice)
    if traced.successor != theorem.successor:
        raise CubeMismatchError(
            f"formula/trace mismatch at word {state.word}, crossing {l}, "
            f"choice {choice}: formula {theorem.successor.cycle_str()} vs "
            f"trace {traced.successor.cycle_str()}",
            word=state.word, crossing=l, choice=choice)
    return theorem


def vertex_group(state: SmoothingState) -> list[DihedralFactor]:
    """One dihedral factor per circle, ordered by lowest member index."""
    if not state.resolved:
        raise CubeError("vertex groups are defined for full smoothings only")
    return [DihedralFactor(cyc) for cyc in state.successor.cycles()]


@dataclass(frozen=True)
class CubeVertex:
    word: tuple[int, ...]          # over {0,1}
    state: SmoothingState
    groups: tuple[DihedralFactor, ...]

    @property
    def c(self) -> int:
        return len(self.groups)


@dataclass(frozen=True)
class CubeEdge:
    star_word: tuple          # over {0,1,'*'}, exactly one '*'
    tail: tuple[int, ...]     # star -> 0
    head: tuple[int, ...]     # star -> 1
    kind: str                 # 'merge' or 'split'
    sign: int                 # (-1)^(number of 1s left of the star)


@dataclass(frozen=True)
class Cube:
    diagram: GoodDiagram
    order: tuple[int, ...]
    vertices: dict[tuple[int, ...], CubeVertex]
    edges: tuple[CubeEdge, ...]

    @property
    def k(self) -> int:
        return self.diagram.k

    def vertex(self, word) -> CubeVertex:
        return self.vertices[tuple(word)]


def build_cube(diagram: GoodDiagram,
               order: Optional[Sequence[int]] = None) -> Cube:
    """All 2^k full smoothings, resolving crossings in ``order``.

    Partial states are shared down a binary tree over choices; every step is
    formula-computed and trace-verified.  Deterministic for a fixed order.
    """
    k = diagram.k
    if order is None:
        order = tuple(range(1, k + 1))
    order = tuple(order)
    if sorted(order) != list(range(1, k + 1)):
        raise CubeError(f"order must be a permutation of 1..{k}: {order}")

    vertices: dict[tuple[int, ...], CubeVertex] = {}
    _descend(initial_state(diagram), order, vertices)
    return Cube(diagram, order, vertices, assemble_edges(vertices))


def _descend(state: SmoothingState, order: tuple[int, ...],
             vertices: dict) -> None:
    """Resolve the crossings ``order`` names, choice 0 before choice 1, and
    put every full smoothing into ``vertices``.

    A module-level function, not a closure over ``vertices``: a recursive
    closure is a reference cycle, which kept every cube alive until the
    next full garbage collection.
    """
    if not order:
        vertices[state.word] = CubeVertex(
            state.word, state, tuple(vertex_group(state)))
        return
    for choice in (0, 1):
        _descend(resolve(state, order[0], choice), order[1:], vertices)


def assemble_edges(vertices: dict[tuple[int, ...], CubeVertex]) -> tuple[CubeEdge, ...]:
    """All cube edges between adjacent full smoothings, with signs and kinds."""
    edges = []
    k = len(next(iter(vertices))) if vertices else 0
    circles = {word: vx.c for word, vx in vertices.items()}
    for pos in range(k):
        for word, c_tail in circles.items():
            if word[pos] != 0:
                continue
            head = word[:pos] + (1,) + word[pos + 1:]
            c_head = circles[head]
            if abs(c_tail - c_head) != 1:
                raise CubeError(
                    f"edge {word}->{head}: circle count changed by "
                    f"{c_head - c_tail}")
            star = word[:pos] + ("*",) + word[pos + 1:]
            sign = -1 if word[:pos].count(1) % 2 else 1
            kind = "merge" if c_head == c_tail - 1 else "split"
            edges.append(CubeEdge(star, word, head, kind, sign))
    return tuple(edges)


# ---------------------------------------------------------------------------
# cross-checks of the stated sibling relations


def cor1_check(state: SmoothingState, l: int) -> dict[str, bool]:
    """Verify the direct relations between the two resolutions of crossing l.

    sigma_minus denotes the 1-resolution, sigma_plus the 0-resolution, both
    obtained from the trace oracle; the returned report maps each applicable
    relation to whether it holds as a permutation identity.
    """
    crossing = state.diagram.crossings[l - 1]
    i, j, v, w = crossing.quadruple
    eps = crossing.sign
    sigma = state.successor
    n = sigma.n
    T = lambda a, b: Permutation.transposition(n, a, b)
    plus = smooth_crossing_trace(state, l, 0).successor
    minus = smooth_crossing_trace(state, l, 1).successor
    report: dict[str, bool] = {}

    same = v in state.successor.cycle_containing(i)
    if not same:
        # distinct cycles: minus = plus conjugated by the parent v-w reflection
        xi = reflection_in(sigma, v, w)
        report["distinct: minus = plus^xi(v,w)"] = (minus == conjugate(plus, xi))
        return report

    # same cycle: {a,b} with sigma(a) = b
    if sigma(v) == w:
        a, b = v, w
    elif sigma(w) == v:
        a, b = w, v
    else:
        raise CubeError(f"crossing {l}: undercrossing arc missing from sigma")

    if sigma(i) == j:
        first = (a == w and eps == 1) or (a == v and eps == -1)
        if first:
            lhs = compose(T(j, b), conjugate(plus, reflection_in(minus, j, a)))
            report["same, i->j, case 1"] = (minus == lhs)
        else:
            lhs = conjugate(compose(T(j, b), plus), reflection_in(plus, j, a))
            report["same, i->j, case 2"] = (minus == lhs)
    if sigma(j) == i:
        # the published identity is stated for the reversed parent
        # orientation; translate our children into that convention
        p_rev = _reverse_cycles_touching(plus, (i, v))
        m_rev = _reverse_cycles_touching(minus, (i, v))
        first = (a == v and eps == -1) or (a == w and eps == 1)
        if first:
            lhs = conjugate(compose(p_rev, T(j, a)), reflection_in(p_rev, j, b))
            report["same, j->i, case 1"] = (m_rev == lhs)
        else:
            lhs = compose(conjugate(p_rev, reflection_in(m_rev, j, b)), T(j, a))
            report["same, j->i, case 2"] = (m_rev == lhs)
    return report
