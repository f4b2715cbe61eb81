"""The cube of smoothings of a good diagram.

Every crossing of a good diagram can be resolved in two planar ways; a word
over {0,1,2} (2 = still crossed) names a partial smoothing.  The oriented
circles of a smoothing are encoded as a successor permutation sigma on the
global vertex indices: its cycles are the circles, the cycle direction is the
orientation.  Each resolution step is computed twice — once by closed
permutation formulas (composition with a transposition, possibly conjugated
by a dihedral reflection) and once by direct graph tracing — and the two must
agree exactly.

The steps run on image lists: a list s with s[0] = 0 and s[x] = sigma(x)
stands for sigma.  Both oracles map a list to a new list, and the two lists
are compared at every step.  A full smoothing's one Permutation walks its
circles once, which checks the list is a bijection; they are interned
through a pool that lives for one build, so each distinct oriented circle
is one cycle tuple and one DihedralFactor, shared by the vertices with it.

An edge is fixed by its two vertices: the star position, the two words and
the change in circle count.  So nothing is stored per edge; ``Cube.edges``
is a view that reads them from the vertices one position at a time, and
the check that every edge changes the circle count by exactly one runs
once when a cube is made, on circle counts indexed by word bit mask.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import compress
from typing import NamedTuple, Optional

from .diagram import GoodDiagram, CrossingRecord
from .perm import Permutation, PermError, DihedralFactor


class CubeError(ValueError):
    pass


class CubeMismatchError(CubeError):
    """Theorem formula and trace oracle disagree; carries the offending path."""

    def __init__(self, message, word=None, crossing=None, choice=None):
        super().__init__(message)
        self.word, self.crossing, self.choice = word, crossing, choice


@dataclass(frozen=True, slots=True)
class SmoothingState:
    """A (partial) smoothing: word over {0,1,2} plus oriented circles."""

    diagram: GoodDiagram
    word: tuple[int, ...]
    successor: Permutation

    def cycle_partition(self) -> frozenset:
        """Unoriented, unanchored circles: for orientation-insensitive equality."""
        return frozenset(min(c, c[:1] + c[:0:-1])
                         for c in self.successor.cycles())


def initial_state(diagram: GoodDiagram) -> SmoothingState:
    """Word of all 2s; sigma = product of the component-successor cycles."""
    return SmoothingState(diagram, (2,) * diagram.k,
                          diagram.component_permutation())


def _crossing_arcs(crossing: CrossingRecord, choice: int):
    """The two index pairs joined by the given resolution of the crossing.

    With the overcrossing edge i->j above v->w, the resolution that connects
    i to w and v to j is the 0-smoothing of a positive crossing and the
    1-smoothing of a negative one; the other pairing (i-v, j-w) is its
    complement.
    """
    i, j, v, w = crossing.i, crossing.j, crossing.v, crossing.w
    if (choice == 0) == (crossing.sign == 1):
        return ((i, w), (v, j))
    return ((i, v), (j, w))


def _locate_arc(s: list[int], a: int, b: int) -> tuple[int, int]:
    """The directed edge of the image list s joining a and b, as
    (source, target)."""
    if s[a] == b:
        return (a, b)
    if s[b] == a:
        return (b, a)
    raise CubeError(f"no edge between {a} and {b} in the current smoothing")


def _trace_images(crossing: CrossingRecord, s: list[int],
                  choice: int) -> list[int]:
    """The trace oracle: resolve the crossing by cutting the circles of the
    image list s into strands and re-joining them; returns a new list.

    Cutting the crossing's two arcs out of the circles through i_l and v_l
    leaves two directed strands, each running from the head of one cut arc
    to the tail of the other; a strand is held by these two ends.  The
    choice's pairing joins their ends; the circle through i_l is re-walked
    starting with the new edge out of i_l, then (if separate) the circle
    through v_l starting at v_l, and a strand walked from its tail is
    reversed link by link along sigma.  A remaining re-joined strand keeps
    the direction of sigma.  Every other vertex keeps its image under sigma.
    """
    i, j, v, w = crossing.i, crossing.j, crossing.v, crossing.w
    tail1, head1 = _locate_arc(s, i, j)
    tail2, head2 = _locate_arc(s, v, w)
    if _same_cycle(s, head1, head2):
        one, two = (head1, tail2), (head2, tail1)
    else:
        one, two = (head1, tail1), (head2, tail2)
    # an end of a strand -> (the strand, whether it is walked forward
    # when entered there)
    ends = {one[0]: (one, True), one[1]: (one, False),
            two[0]: (two, True), two[1]: (two, False)}
    (a, b), (c, d) = _crossing_arcs(crossing, choice)
    partner = {a: b, b: a, c: d, d: c}

    succ = s[:]
    for start in (i, v):
        if start not in ends:
            continue            # v lies on the circle walked from i
        x = start
        while True:
            y = partner[x]
            succ[x] = y
            (head, tail), forward = ends.pop(y)
            if forward:
                x = tail
            else:
                # entered at its tail: every link of the strand turns round
                x = head
                while head != tail:
                    succ[s[head]] = head
                    head = s[head]
            del ends[x]
            if x == start:
                break
    # a remaining strand keeps the direction of sigma; it holds neither i
    # nor v, so it arises only when sigma runs i->j ... w->v and the pairing
    # is (i,v),(j,w): the j-w circle
    if ends:
        (head, tail), _ = next(iter(ends.values()))
        if len(ends) != 2 or partner[tail] != head:
            raise CubeError("orientation trace left a circle without direction")
        succ[tail] = head
    return succ


# ---------------------------------------------------------------------------
# the permutation formulas on image lists
#
# Each helper returns a new list, and its docstring names the operation of
# the permutation algebra (the reference in tests/conftest.py) it computes
# on the permutation the list stands for.


def _cycle_of(p: list[int], x: int) -> list[int]:
    """The cycle of p through x, starting at x."""
    cyc = [x]
    y = p[x]
    while y != x:
        cyc.append(y)
        y = p[y]
    return cyc


def _same_cycle(p: list[int], x: int, y: int) -> bool:
    """Whether y lies on the cycle of p through x."""
    z = p[x]
    while z != x and z != y:
        z = p[z]
    return z == y


def _right_swap(p: list[int], a: int, b: int) -> list[int]:
    """compose(p, T(a, b)): positions a and b swap their images."""
    q = p[:]
    q[a], q[b] = p[b], p[a]
    return q


def _reflection(p: list[int], a: int, b: int) -> list[int]:
    """The dihedral reflection exchanging a and b: writing the cycle of p
    through a as c_0 = a, c_1, ..., c_{d-1}, c_x goes to c_{(s - x) mod d}
    with c_s = b; every other index is fixed."""
    cyc = _cycle_of(p, a)
    if b not in cyc:
        raise CubeError(f"{a} and {b} lie in different cycles")
    s, d = cyc.index(b), len(cyc)
    g = list(range(len(p)))
    for x, c in enumerate(cyc):
        g[c] = cyc[(s - x) % d]
    return g


def _conjugate(a: list[int], g: list[int]) -> list[int]:
    """conjugate(a, g) for an involution g: x -> g(a(g(x))); iterating g
    gives g(x) for x = 0, 1, ..."""
    return [g[a[y]] for y in g]


def _reversed_cycles(p: list[int], members) -> list[int]:
    """Reverse every cycle of p that contains a member of ``members``."""
    q = p[:]
    for x in members:
        if q[x] != p[x]:
            continue        # x's cycle is reversed already
        y = x
        while True:
            q[p[y]] = y
            y = p[y]
            if y == x:
                break
    return q


def _formula_images(crossing: CrossingRecord, s: list[int],
                    choice: int) -> list[int]:
    """Resolve the crossing on the image list s by the closed permutation
    formulas; returns a new list.

    The four directions of the crossing's arcs in sigma are one rule, with
    T(a, b) the transposition of a and b and reflection_in(p, a, b) the
    reflection that _reflection computes:

        sigma       x  y  tau                      tau alone when
        i->j, v->w  w  v  compose(T(j, w), sigma)  (choice = 0) == (eps = +1)
        i->j, w->v  v  w  compose(T(j, v), sigma)  (choice = 1) == (eps = +1)
        j->i, v->w  v  w  compose(sigma, T(j, v))  (choice = 1) == (eps = +1)
        j->i, w->v  w  v  compose(sigma, T(j, w))  (choice = 0) == (eps = +1)

    Otherwise the result is conjugate(sigma, reflection_in(tau, j, y)) if i
    and v share a cycle, else conjugate(tau, reflection_in(sigma, v, w)).
    When sigma maps j->i, these identities fix the reversed orientation of
    the parent, so the circles through i and v are reversed back.
    """
    i, j, v, w = crossing.i, crossing.j, crossing.v, crossing.w
    fwd = s[i] == j
    if not (fwd or s[j] == i) or not (s[v] == w or s[w] == v):
        raise CubeError(f"crossing {crossing.index}: neither arc of "
                        f"({i},{j},{v},{w}) present in sigma")
    aligned = fwd == (s[v] == w)
    x, y = (w, v) if aligned else (v, w)
    # when sigma maps i->j and y->x, compose(T(j, x), sigma) swaps the
    # images of positions i and y
    tau = _right_swap(s, i, y) if fwd else _right_swap(s, j, x)
    if ((choice == 0) == (crossing.sign == 1)) == aligned:
        res = tau
    elif _same_cycle(s, i, v):
        res = _conjugate(s, _reflection(tau, j, y))
    else:
        res = _conjugate(tau, _reflection(s, v, w))
    return res if fwd else _reversed_cycles(res, (i, v))


def _step(diagram: GoodDiagram, word: Sequence[int], s: list[int], l: int,
          choice: int) -> list[int]:
    """One resolution step on image lists: the trace oracle and the closed
    formulas both resolve crossing l of the smoothing (word, s), and their
    lists must be equal.  Returns the formula's list."""
    crossing = diagram.crossings[l - 1]
    traced = _trace_images(crossing, s, choice)
    formula = _formula_images(crossing, s, choice)
    if formula != traced:
        raise CubeMismatchError(
            f"formula/trace mismatch at word {tuple(word)}, crossing {l}, "
            f"choice {choice}: formula {_cycle_text(formula)} vs "
            f"trace {_cycle_text(traced)}",
            word=tuple(word), crossing=l, choice=choice)
    return formula


def _cycle_text(images: list[int]) -> str:
    """Cycle notation of an image list, for error messages; a list that is
    no bijection is shown as it is."""
    try:
        return Permutation(images[1:]).cycle_str()
    except PermError:
        return f"non-bijective images {images[1:]}"


def _checked(state: SmoothingState, l: int, choice: int) -> list[int]:
    """The image list of the state, once crossing l and the choice are
    known to name a step."""
    if not 1 <= l <= state.diagram.k:
        raise CubeError(f"no crossing {l} in a {state.diagram.k}-crossing diagram")
    if state.word[l - 1] != 2:
        raise CubeError(f"crossing {l} already resolved")
    if choice not in (0, 1):
        raise CubeError(f"choice must be 0 or 1, got {choice}")
    return [0, *state.successor.images]


def _resolved(state: SmoothingState, l: int, choice: int,
              images: list[int]) -> SmoothingState:
    word = state.word[:l - 1] + (choice,) + state.word[l:]
    return SmoothingState(state.diagram, word, Permutation(images[1:]))


def smooth_crossing_trace(state: SmoothingState, l: int,
                          choice: int) -> SmoothingState:
    """Resolve crossing l by the trace oracle alone."""
    s = _checked(state, l, choice)
    return _resolved(state, l, choice, _trace_images(
        state.diagram.crossings[l - 1], s, choice))


def smooth_crossing_theorem(state: SmoothingState, l: int,
                            choice: int) -> SmoothingState:
    """Resolve crossing l by the closed permutation formulas alone."""
    s = _checked(state, l, choice)
    return _resolved(state, l, choice, _formula_images(
        state.diagram.crossings[l - 1], s, choice))


def resolve(state: SmoothingState, l: int, choice: int) -> SmoothingState:
    """Theorem-formula resolution, cross-checked against the trace oracle."""
    s = _checked(state, l, choice)
    return _resolved(state, l, choice,
                     _step(state.diagram, state.word, s, l, choice))


@dataclass(frozen=True, slots=True)
class CubeVertex:
    word: tuple[int, ...]          # over {0,1}
    state: SmoothingState
    groups: tuple[DihedralFactor, ...]

    @property
    def c(self) -> int:
        return len(self.groups)


class CubeEdge(NamedTuple):
    star_word: tuple          # over {0,1,'*'}, exactly one '*'
    tail: tuple[int, ...]     # star -> 0
    head: tuple[int, ...]     # star -> 1
    kind: str                 # 'merge' or 'split'
    sign: int                 # (-1)^(number of 1s left of the star)


_STAR = ("*",)


class CubeEdges:
    """The edges between adjacent full smoothings, read from the vertices.

    Edges come position by position, each in the order of ``vertices``; a
    word is read as the bit mask of its 1s, tail and head are the vertices'
    own word tuples, the kind follows the change in circle count and the
    sign is the parity of the 1s left of the star.  Nothing is stored per
    edge: every walk reads the vertices as they are then.
    """

    __slots__ = ("vertices",)

    def __init__(self, vertices: dict[tuple[int, ...], CubeVertex]):
        self.vertices = vertices

    def core(self):
        """(tail, head, kind, sign) of every edge, in order, without star
        words.  The kind is read from the circle counts and checked by
        nothing: a cube's counts were checked when it was made."""
        bits, masks, words, counts = _by_mask(self.vertices)
        for bit in bits:
            left = bit - 1
            yield from [(words[m], words[m | bit],
                         "merge" if counts[m | bit] < counts[m] else "split",
                         -1 if (m & left).bit_count() & 1 else 1)
                        for m in masks if not m & bit]

    def __iter__(self):
        bits, masks, words, counts = _by_mask(self.vertices)
        for pos, bit in enumerate(bits):
            left = bit - 1
            # CubeEdge(star_word, tail, head, kind, sign), without the
            # Python-level __new__ of a NamedTuple
            yield from [tuple.__new__(CubeEdge, (
                tail[:pos] + _STAR + tail[pos + 1:], tail, words[m | bit],
                "merge" if counts[m | bit] < counts[m] else "split",
                -1 if (m & left).bit_count() & 1 else 1))
                for m in masks if not m & bit for tail in (words[m],)]


def _by_mask(vertices: dict[tuple[int, ...], CubeVertex]):
    """(bits, masks, words, counts): the bit of each position, the bit mask
    of the 1s of each word in the order of ``vertices``, and the words and
    circle counts indexed by mask."""
    k = len(next(iter(vertices), ()))
    bits = [1 << pos for pos in range(k)]
    masks = [sum(compress(bits, word)) for word in vertices]
    words, counts = [None] * (1 << k), [0] * (1 << k)
    for mask, (word, vx) in zip(masks, vertices.items()):
        words[mask] = word
        counts[mask] = len(vx.groups)
    return bits, masks, words, counts


@dataclass(frozen=True)
class Cube:
    diagram: GoodDiagram
    order: tuple[int, ...]
    vertices: dict[tuple[int, ...], CubeVertex]
    edges: CubeEdges = field(compare=False)     # fixed by the vertices

    @property
    def k(self) -> int:
        return self.diagram.k


def _full_smoothing(diagram: GoodDiagram, word: tuple[int, ...],
                   images: list[int], circles: dict) -> CubeVertex:
    """The cube vertex of the full smoothing with image list ``images``.

    Its one Permutation walks the circles once, which checks that the list
    is a bijection; the walked cycles are interned through ``circles``, the
    build's pool of DihedralFactors by cycle tuple.
    """
    successor = Permutation(images[1:])
    return CubeVertex(word, SmoothingState(diagram, word, successor),
                      successor.dihedral_factors(circles))


def _made_cube(diagram: GoodDiagram, order: tuple[int, ...],
               vertices: dict[tuple[int, ...], CubeVertex]) -> Cube:
    """The cube over ``vertices``, once every edge is checked to change the
    circle count by exactly one, in the order of ``Cube.edges``."""
    bits, masks, words, counts = _by_mask(vertices)
    for bit in bits:
        for m in masks:
            if not m & bit and counts[m | bit] - counts[m] not in (1, -1):
                raise CubeError(f"edge {words[m]}->{words[m | bit]}: circle "
                                f"count changed by "
                                f"{counts[m | bit] - counts[m]}")
    return Cube(diagram, order, vertices, CubeEdges(vertices))


def build_cube(diagram: GoodDiagram,
               order: Optional[Sequence[int]] = None) -> Cube:
    """All 2^k full smoothings, resolving crossings in ``order``.

    Partial smoothings are image lists shared down a binary tree over
    choices; every step is formula-computed and trace-verified.
    Deterministic for a fixed order.
    """
    k = diagram.k
    order = tuple(range(1, k + 1)) if order is None else tuple(order)
    if sorted(order) != list(range(1, k + 1)):
        raise CubeError(f"order must be a permutation of 1..{k}: {order}")

    vertices: dict[tuple[int, ...], CubeVertex] = {}
    # sigma of the word of all 2s: the component successors
    s = [0, *map(diagram.successor, range(1, diagram.n + 1))]
    _descend(diagram, order, 0, [2] * k, s, vertices, {})
    return _made_cube(diagram, order, vertices)


def _descend(diagram: GoodDiagram, order: tuple[int, ...], depth: int,
             letters: list[int], s: list[int], vertices: dict,
             circles: dict) -> None:
    """Resolve the crossings ``order[depth:]`` names, choice 0 before
    choice 1, and put every full smoothing into ``vertices``, its circles
    interned through ``circles``.  ``letters`` is the word as a list, set
    and restored in place around each choice.

    A module-level function, not a closure over ``vertices``: a recursive
    closure is a reference cycle, which kept every cube alive until the
    next full garbage collection.
    """
    if depth == len(order):
        word = tuple(letters)
        vertices[word] = _full_smoothing(diagram, word, s, circles)
        return
    l = order[depth]
    for choice in (0, 1):
        t = _step(diagram, letters, s, l, choice)
        letters[l - 1] = choice
        _descend(diagram, order, depth + 1, letters, t, vertices, circles)
        letters[l - 1] = 2
