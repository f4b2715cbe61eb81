"""Triangle deformation calculus on good diagrams.

An elementary deformation removes a vertex q_p (with cyclic neighbours q_l
and q_m) and replaces the two edges at q_p by the single edge q_l-q_m, or
inserts a vertex the other way round.  How the move interacts with the
crossings of the diagram falls into a small number of cases, classified here
from the exact planar data; for the simple cases the cube of permutations of
the deformed diagram can be produced by closed substitutions instead of a
full recomputation.  The substitutions run on image lists with the helpers
of the cube module: one step per kept cube vertex orients the circle through
q_p, multiplies by a transposition and renumbers q_p away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .diagram import (GoodDiagram, CrossingRecord, DiagramError,
                      build_good_diagram, crossing_sign)
from .cube import (Cube, _crossing_arcs, _full_smoothing, _made_cube,
                   _right_swap, _reversed_cycles)
from .geometry import (PolygonalLink, DeformationError, seg2_intersection,
                       point_on_seg2, _point_in_triangle2, orient2,
                       deform_remove_vertex)


class MoveError(ValueError):
    pass


@dataclass(frozen=True)
class TriangleMove:
    """A vertex removal across the empty triangle (q_l, q_p, q_m).

    The tag names the crossing pattern of the triangle sides:

    * ``C1`` - no crossings on the sides;
    * ``C2``/``C3`` - one crossing on side l-p / p-m vanishes (a polygonal
      Reidemeister I move);
    * ``C4``/``C5`` - the crossing on side l-p / p-m slides onto the new edge;
    * ``CA``/``CB`` - composite moves with one extra vertex ``a`` inside the
      triangle (a vanishing or sliding crossing followed by a plain removal);
    * ``CC`` - two crossings sharing the inner vertex ``a`` vanish (a
      polygonal Reidemeister II move);
    * ``RIII`` - the sides cross two strands that cross each other inside the
      triangle (one third of a polygonal Reidemeister III move).
    """

    tag: str
    l: int
    p: int
    m: int
    a: Optional[int] = None
    b: Optional[int] = None
    c: Optional[int] = None

    def log_line(self) -> str:
        aux = [x for x in (self.a, self.b, self.c) if x is not None]
        line = f"{self.tag} {self.l} {self.p} {self.m}"
        if aux:
            line += " [" + " ".join(str(x) for x in aux) + "]"
        return line


# ---------------------------------------------------------------------------
# classification


def _crossing_on(diagram: GoodDiagram, a: int, b: int) -> Optional[CrossingRecord]:
    """The crossing carried by the directed edge a->b, if any."""
    for cr in diagram.crossings:
        if (cr.i, cr.j) == (a, b) or (cr.v, cr.w) == (a, b):
            return cr
    return None


def _partner_edge(cr: CrossingRecord, a: int, b: int) -> tuple[int, int]:
    """The other edge of the crossing, given one edge (a, b)."""
    if (cr.i, cr.j) == (a, b):
        return (cr.v, cr.w)
    return (cr.i, cr.j)


def _new_edge_crossings(diagram: GoodDiagram, l: int, p: int,
                        m: int) -> list[tuple[int, int]]:
    """Edges crossing the replacement edge l-m transversely in their interiors.

    Raises when the deformed picture would not be a regular diagram (endpoint
    touches, overlaps, crossings next to shared vertices).
    """
    ql, qm = diagram.vertex(l), diagram.vertex(m)
    partners = []
    for g in range(1, diagram.n + 1):
        h = diagram.successor(g)
        if g in (l, p) and h in (p, m):
            continue  # the two removed sides
        hit = seg2_intersection(ql, qm, diagram.vertex(g), diagram.vertex(h))
        if hit is None:
            continue
        kind, data = hit
        if kind == "overlap":
            raise MoveError(
                f"deformed edge {l}-{m} overlaps edge ({g},{h}); "
                "the deformed diagram is not good - refine the link first")
        t, u, _pt = data
        if g in (l, m) or h in (l, m):
            shared = ql if g == l or h == l else qm
            expected_t = 0 if shared == ql else 1
            if t == expected_t and (u == 0 or u == 1):
                continue  # touching only at the shared vertex
            raise MoveError(
                f"deformed edge {l}-{m} meets adjacent edge ({g},{h}) beyond "
                "the shared vertex; the deformed diagram is not good - "
                "refine the link first")
        if 0 < t < 1 and 0 < u < 1:
            partners.append((g, h))
            continue
        raise MoveError(
            f"deformed edge {l}-{m} touches an endpoint of edge ({g},{h}); "
            "the deformed diagram is not good - refine the link first")
    return partners


def _other_end(edge: tuple[int, int], x: int) -> int:
    a, b = edge
    return b if a == x else a


def _strictly_inside(x, tri) -> bool:
    a, b, c = tri
    sgn = 1 if orient2(a, b, c) > 0 else -1
    return all(orient2(e1, e2, x) * sgn > 0 for (e1, e2) in
               ((a, b), (b, c), (c, a)))


def classify_triangle_move(diagram: GoodDiagram, p: int,
                           link: Optional[PolygonalLink] = None) -> TriangleMove:
    """Classify the removal of vertex p from a good diagram.

    When the source ``link`` is supplied, the spanned triangle is also checked
    for three-dimensional obstructions.
    """
    return _classify_removal(diagram, p, link)[0]


def _classify_removal(diagram: GoodDiagram, p: int,
                      link: Optional[PolygonalLink]
                      ) -> tuple[TriangleMove, Optional[PolygonalLink]]:
    """``classify_triangle_move``, also returning the link with vertex p
    removed (None without a ``link``), which its 3D check computes."""
    if not 1 <= p <= diagram.n:
        raise MoveError(f"no vertex {p}")
    l = diagram.predecessor(p)
    m = diagram.successor(p)
    if l in (p, m) or diagram.successor(m) == l:
        # the component has at most 3 vertices
        raise MoveError("cannot shrink a component below 3 vertices")
    ql, qp, qm = diagram.vertex(l), diagram.vertex(p), diagram.vertex(m)
    if orient2(ql, qp, qm) == 0:
        raise MoveError(f"triangle ({l},{p},{m}) is degenerate")

    link2 = None
    if link is not None:
        try:
            link2 = deform_remove_vertex(link, p)
        except DeformationError as exc:
            raise MoveError(f"triangle obstructed in 3D: {exc}") from exc
    return _triangle_case(diagram, l, p, m), link2


def _triangle_case(diagram: GoodDiagram, l: int, p: int,
                   m: int) -> TriangleMove:
    """The case of the planar triangle (l, p, m), from the diagram alone."""
    ql, qp, qm = diagram.vertex(l), diagram.vertex(p), diagram.vertex(m)
    tri = (ql, qp, qm)
    inside: list[int] = []
    for g in range(1, diagram.n + 1):
        if g in (l, p, m):
            continue
        q = diagram.vertex(g)
        if not _point_in_triangle2(q, tri):
            continue
        for (e1, e2) in ((ql, qp), (qp, qm), (qm, ql)):
            if point_on_seg2(q, e1, e2):
                raise MoveError(
                    f"vertex {g} lies on the boundary of triangle "
                    f"({l},{p},{m})")
        inside.append(g)

    cr_lp = _crossing_on(diagram, l, p)
    cr_pm = _crossing_on(diagram, p, m)

    # Reidemeister III pattern: both sides crossed, and the two crossed
    # strands cross each other inside the triangle.  Their middle vertices
    # necessarily project into the triangle, so this is recognised before the
    # inner-vertex dispatch; the deformed diagram of the single removal is
    # not good, and the caller must treat the move atomically.
    if cr_lp is not None and cr_pm is not None and len(inside) == 2:
        e1 = _partner_edge(cr_lp, l, p)
        e2 = _partner_edge(cr_pm, p, m)
        for cr in diagram.crossings:
            if cr in (cr_lp, cr_pm):
                continue
            if not _strictly_inside(cr.point, tri):
                continue
            f1, f2 = (cr.i, cr.j), (cr.v, cr.w)
            for g1, g2 in ((f1, f2), (f2, f1)):
                s1 = set(g1) & set(e1)
                s2 = set(g2) & set(e2)
                if len(s1) == 1 and len(s2) == 1 and s1 | s2 == set(inside):
                    return TriangleMove("RIII", l, p, m,
                                        a=min(s1), b=min(s2))

    new_partners = _new_edge_crossings(diagram, l, p, m)
    side_partners = []
    if cr_lp is not None:
        side_partners.append(_partner_edge(cr_lp, l, p))
    if cr_pm is not None:
        side_partners.append(_partner_edge(cr_pm, p, m))

    # goodness of the deformed diagram: no edge may end up with two crossings
    if len(new_partners) > 1 and not (
            cr_lp and cr_pm and set(new_partners) == set(side_partners)):
        raise MoveError(
            f"deformed edge {l}-{m} would carry {len(new_partners)} "
            "crossings; the deformed diagram is not good - refine the link "
            "first")
    for e in new_partners:
        kept = sum(1 for cr in diagram.crossings
                   if e in ((cr.i, cr.j), (cr.v, cr.w))
                   and cr not in (cr_lp, cr_pm))
        if kept:
            raise MoveError(
                f"edge {e} would carry two crossings after the move; the "
                "deformed diagram is not good - refine the link first")

    if not inside:
        if cr_lp is None and cr_pm is None and not new_partners:
            return TriangleMove("C1", l, p, m)
        if cr_lp and not cr_pm and not new_partners:
            e = _partner_edge(cr_lp, l, p)
            if m not in e:
                raise MoveError(
                    f"crossing on side ({l},{p}) with non-adjacent edge {e} "
                    "does not match any supported case")
            return TriangleMove("C2", l, p, m, a=_other_end(e, m))
        if cr_pm and not cr_lp and not new_partners:
            e = _partner_edge(cr_pm, p, m)
            if l not in e:
                raise MoveError(
                    f"crossing on side ({p},{m}) with non-adjacent edge {e} "
                    "does not match any supported case")
            return TriangleMove("C3", l, p, m, a=_other_end(e, l))
        if cr_lp and not cr_pm and len(new_partners) == 1:
            e = _partner_edge(cr_lp, l, p)
            if new_partners[0] == e:
                return TriangleMove("C4", l, p, m, a=e[0], b=e[1])
        if cr_pm and not cr_lp and len(new_partners) == 1:
            e = _partner_edge(cr_pm, p, m)
            if new_partners[0] == e:
                return TriangleMove("C5", l, p, m, a=e[0], b=e[1])
        raise MoveError(
            f"crossing pattern at triangle ({l},{p},{m}) does not match any "
            "supported case")

    if len(inside) == 1:
        a = inside[0]
        n_side = int(cr_lp is not None) + int(cr_pm is not None)
        if n_side == 1 and not new_partners:
            e = _partner_edge(cr_lp or cr_pm, *((l, p) if cr_lp else (p, m)))
            if a in e:
                return TriangleMove("CA", l, p, m, a=a, b=_other_end(e, a))
        if n_side == 1 and len(new_partners) == 1:
            e = _partner_edge(cr_lp or cr_pm, *((l, p) if cr_lp else (p, m)))
            e2 = new_partners[0]
            if a in e and a in e2:
                return TriangleMove("CB", l, p, m, a=a,
                                    b=_other_end(e, a), c=_other_end(e2, a))
        if n_side == 2 and not new_partners:
            e1 = _partner_edge(cr_lp, l, p)
            e2 = _partner_edge(cr_pm, p, m)
            shared = set(e1) & set(e2)
            if shared == {a}:
                return TriangleMove("CC", l, p, m, a=a,
                                    b=_other_end(e1, a), c=_other_end(e2, a))
        raise MoveError(
            f"triangle ({l},{p},{m}) with inner vertex {a} does not match "
            "any supported composite case")

    raise MoveError(
        f"triangle ({l},{p},{m}) contains {len(inside)} other vertices; "
        "unsupported configuration")


# ---------------------------------------------------------------------------
# cube transformation


def _renumber_index(x: int, p: int) -> int:
    return x - 1 if x > p else x


def _renumbered(s: list[int], p: int) -> list[int]:
    """Drop the fixed point p of the image list s and shift higher indices
    down by one."""
    return [_renumber_index(y, p) for y in s[:p] + s[p + 1:]]


def _substituted(s: list[int], a: int, p: int) -> list[int]:
    """One substitution step of ``transform_cube`` on the image list s.

    The cycle through p is reversed if needed so that sigma(a) = p; then
    compose(sigma, T(a, p)) sends a to sigma(p) and fixes p, and p is
    renumbered away.
    """
    if s[a] != p:
        if s[p] != a:
            raise MoveError(f"edge {a}-{p} missing from the smoothing")
        s = _reversed_cycles(s, (p,))
    # compose(sigma, T(a, p))
    return _renumbered(_right_swap(s, a, p), p)


def _deformed_diagram(diagram: GoodDiagram, move: TriangleMove,
                      drop: Sequence[int] = ()) -> GoodDiagram:
    """The good diagram after removing vertex p combinatorially.

    ``drop`` lists crossing indices that vanish; for C4/C5 the sliding
    crossing is rewritten onto the new edge with its sign and intersection
    point recomputed.
    """
    p = move.p
    vertices = diagram.vertices[:p - 1] + diagram.vertices[p:]
    boundaries = tuple(b - 1 if b >= p else b for b in diagram.boundaries)
    records = []
    for cr in diagram.crossings:
        if cr.index in drop:
            continue
        quad = cr.quadruple
        sign, point = cr.sign, cr.point
        if p in quad:
            sub = move.m if move.tag == "C4" else move.l
            quad = tuple(sub if x == p else x for x in quad)
        quad = tuple(_renumber_index(x, p) for x in quad)
        records.append((quad, sign, point, p in cr.quadruple))
    out = []
    for idx, (quad, sign, point, slid) in enumerate(
            sorted(records, key=lambda r: r[0][0]), start=1):
        i, j, v, w = quad
        qs = [vertices[x - 1] for x in quad]
        if slid:
            sign = crossing_sign(*qs)
            hit = seg2_intersection(qs[0], qs[1], qs[2], qs[3])
            if hit is None or hit[0] != "point":
                raise MoveError(
                    f"slid crossing {quad} does not exist in the deformed "
                    "diagram")
            point = hit[1][2]
        out.append(CrossingRecord(idx, i, j, v, w, sign, point))
    return GoodDiagram(vertices, boundaries, tuple(out))


def _bigon_letter(cr: CrossingRecord, p: int, other: int) -> int:
    """The resolution choice of the crossing that closes the bigon (p, other)."""
    for choice in (0, 1):
        for arc in _crossing_arcs(cr, choice):
            if set(arc) == {p, other}:
                return choice
    raise MoveError(f"no resolution of crossing {cr.index} closes a bigon "
                    f"at ({p},{other})")


def transform_cube(cube: Cube, move: TriangleMove) -> tuple[Cube, list[str]]:
    """Deform a cube of permutations by closed substitutions.

    For a C1 move every vertex permutation is multiplied by the transposition
    (l, p); for a C2/C3 move the half-cube whose smoothings contain the
    residual bigon is discarded and the remaining permutations are multiplied
    by the transposition joining p to its intact neighbour.  Both run the
    same substitution step on each kept vertex's image list: orient the
    cycle through p, multiply, renumber p away.  Returns the new cube
    together with a provenance record of the substitutions applied.
    """
    diagram = cube.diagram
    l, p, m = move.l, move.p, move.m
    provenance = [f"move {move.log_line()}"]

    if move.tag == "C1":
        a, lc, rho = l, None, None
        diagram2 = _deformed_diagram(diagram, move)
        order2 = cube.order
        provenance.append(
            f"every sigma_v multiplied on the right by <{l},{p}> "
            f"(cycles through {p} oriented so that sigma({l})={p}); "
            f"vertex {p} renumbered away")
    elif move.tag in ("C2", "C3"):
        side = (l, p) if move.tag == "C2" else (p, m)
        a = m if move.tag == "C2" else l        # p's intact neighbour
        cr = _crossing_on(diagram, *side)
        if cr is None:
            raise MoveError(f"no crossing on side {side}; "
                            "recompute the cube from the deformed diagram")
        lc = cr.index
        rho = _bigon_letter(cr, p, a)
        diagram2 = _deformed_diagram(diagram, move, drop=(lc,))
        order2 = tuple(x - 1 if x > lc else x for x in cube.order if x != lc)
        provenance.append(
            f"crossing {lc} vanishes; half-cube with letter {rho} at "
            f"position {lc} (the residual bigon side) discarded; remaining "
            f"sigma_v multiplied on the right by <{a},{p}>; vertex {p} "
            f"renumbered away")
    else:
        raise MoveError(
            f"{move.tag} has no closed cube substitution; recompute the cube "
            "from the deformed diagram")

    vertices = {}
    circles: dict = {}
    for word, vx in cube.vertices.items():
        s = [0, *vx.state.successor.images]
        if lc is not None:
            if word[lc - 1] == rho:
                # discarded half: sanity-check the stated bigon structure
                if s[p] != a or s[a] != p:
                    raise MoveError(
                        f"smoothing {word} lacks the bigon ({p},{a}); "
                        "recompute the cube from the deformed diagram")
                continue
            word = word[:lc - 1] + word[lc:]
        vertices[word] = _full_smoothing(diagram2, word, _substituted(s, a, p),
                                         circles)
    return _made_cube(diagram2, order2, vertices), provenance


def apply_move(link: PolygonalLink, direction, p: int):
    """Remove vertex p from the link, classify the move, and rebuild.

    Returns (move, deformed link, deformed diagram).  The change in crossing
    count is checked against the classified case.
    """
    diagram = build_good_diagram(link, direction)
    move, link2 = _classify_removal(diagram, p, link)
    if move.tag == "RIII":
        raise MoveError(
            "a Reidemeister III pattern cannot be realised by a single "
            "vertex removal; move the strands and rebuild instead")
    try:
        diagram2 = build_good_diagram(link2, direction)
    except DiagramError as exc:
        raise MoveError(f"deformed diagram is not good: {exc}") from exc
    delta = diagram2.k - diagram.k
    expected = {"C1": 0, "C2": -1, "C3": -1, "C4": 0, "C5": 0,
                "CA": -1, "CB": 0, "CC": -2}[move.tag]
    if delta != expected:
        raise MoveError(
            f"case {move.tag} should change the crossing count by "
            f"{expected}, observed {delta}")
    return move, link2, diagram2
