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
                      build_good_diagram, crossing_sign,
                      diagram_from_projection)
from .cube import (Cube, _crossing_arcs, _full_smoothing, _made_cube,
                   _right_swap, _reversed_cycles)
from .exact import _integral, orient2, seg2_intersection
from .geometry import (PolygonalLink, Projection, DeformationError,
                       deform_remove_vertex, project_link, _crossings_along,
                       _frame, _meetings, _renumbered_crossings, _spliced)


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


# what each witness of ``_meetings`` says about the replacement edge
_WITNESS_TEXT = {
    "segment_overlap": "overlaps edge {}",
    "adjacent_crossing": "meets adjacent edge {} beyond the shared vertex",
    "vertex_on_edge": "touches an endpoint of edge {}",
}


def _new_edge_crossings(diagram: GoodDiagram, img: list, l: int, p: int,
                        m: int) -> list[tuple[int, int]]:
    """Edges crossing the replacement edge l-m transversely in their
    interiors, given ``img``, the vertex images scaled to ints.

    The edges other than the two removed sides are scanned in order by
    ``_meetings``, as the projection scans its edge pairs.  Raises at the
    first witness that the deformed picture would not be a regular diagram
    (an overlap, a crossing next to a shared vertex, an endpoint touch).
    """
    edges = [(g, diagram.successor(g)) for g in range(1, diagram.n + 1)
             if g != l and g != p]
    partners = []
    for (g, h), *hit in _meetings((l, m), img[l - 1], img[m - 1], edges,
                                  img):
        if len(hit) == 1:
            raise MoveError(
                f"deformed edge {l}-{m} "
                + _WITNESS_TEXT[hit[0]].format(f"({g},{h})")
                + "; the deformed diagram is not good - refine the link "
                "first")
        partners.append((g, h))
    return partners


def _other_end(edge: tuple[int, int], x: int) -> int:
    a, b = edge
    return b if a == x else a


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
    """The case of the planar triangle (l, p, m), from the diagram alone.

    The vertex images and crossing points are scaled to ints once, by the
    lcm of their denominators, which changes no orientation sign; every
    planar test runs on them.
    """
    n = diagram.n
    pts, _ = _integral([*diagram.vertices,
                        *[cr.point for cr in diagram.crossings]])
    img = pts[:n]
    ql, qp, qm = img[l - 1], img[p - 1], img[m - 1]
    sides = ((ql, qp), (qp, qm), (qm, ql))
    turn = 1 if orient2(ql, qp, qm) > 0 else -1

    def depth(q) -> int:
        """> 0 strictly inside the triangle, 0 on its boundary, < 0
        outside: the least turn of q about the sides, signed by theirs."""
        return min([orient2(a, b, q) * turn for a, b in sides])

    inside: list[int] = []
    for g in range(1, n + 1):
        if g in (l, p, m):
            continue
        d = depth(img[g - 1])
        if d == 0:
            raise MoveError(
                f"vertex {g} lies on the boundary of triangle ({l},{p},{m})")
        if d > 0:
            inside.append(g)

    cr_lp = _crossing_on(diagram, l, p)
    cr_pm = _crossing_on(diagram, p, m)
    # the crossed sides, each with the other edge of its crossing
    crossed = [(side, _partner_edge(cr, *side))
               for cr, side in ((cr_lp, (l, p)), (cr_pm, (p, m)))
               if cr is not None]
    partners = [e for _side, e in crossed]

    # Reidemeister III pattern: both sides crossed, and the two crossed
    # strands cross each other inside the triangle.  Their middle vertices
    # necessarily project into the triangle, so this is recognised before the
    # inner-vertex dispatch; the deformed diagram of the single removal is
    # not good, and the caller must treat the move atomically.
    if len(crossed) == 2 and len(inside) == 2:
        e1, e2 = partners
        for cr, q in zip(diagram.crossings, pts[n:]):
            if cr in (cr_lp, cr_pm) or depth(q) <= 0:
                continue
            f1, f2 = (cr.i, cr.j), (cr.v, cr.w)
            for g1, g2 in ((f1, f2), (f2, f1)):
                s1 = set(g1) & set(e1)
                s2 = set(g2) & set(e2)
                if len(s1) == 1 and len(s2) == 1 and s1 | s2 == set(inside):
                    return TriangleMove("RIII", l, p, m,
                                        a=min(s1), b=min(s2))

    new_partners = _new_edge_crossings(diagram, img, l, p, m)

    # goodness of the deformed diagram: no edge may end up with two crossings
    if len(new_partners) > 1 and not (
            len(crossed) == 2 and set(new_partners) == set(partners)):
        raise MoveError(
            f"deformed edge {l}-{m} would carry {len(new_partners)} "
            "crossings; the deformed diagram is not good - refine the link "
            "first")
    for e in new_partners:
        if any(e in ((cr.i, cr.j), (cr.v, cr.w)) for cr in diagram.crossings
               if cr not in (cr_lp, cr_pm)):
            raise MoveError(
                f"edge {e} would carry two crossings after the move; the "
                "deformed diagram is not good - refine the link first")

    if not inside:
        if not crossed and not new_partners:
            return TriangleMove("C1", l, p, m)
        if len(crossed) == 1:
            # the crossed side is l-p (C2, C4), whose far end is m, or p-m
            # (C3, C5), whose far end is l
            (side, e), = crossed
            first = side == (l, p)
            far = m if first else l
            if not new_partners:
                if far not in e:
                    raise MoveError(
                        f"crossing on side ({side[0]},{side[1]}) with "
                        f"non-adjacent edge {e} does not match any "
                        "supported case")
                return TriangleMove("C2" if first else "C3", l, p, m,
                                    a=_other_end(e, far))
            if new_partners == [e]:
                return TriangleMove("C4" if first else "C5", l, p, m,
                                    a=e[0], b=e[1])
        raise MoveError(
            f"crossing pattern at triangle ({l},{p},{m}) does not match any "
            "supported case")

    if len(inside) == 1:
        a = inside[0]
        if len(crossed) == 1 and a in partners[0]:
            b = _other_end(partners[0], a)
            if not new_partners:
                return TriangleMove("CA", l, p, m, a=a, b=b)
            if len(new_partners) == 1 and a in new_partners[0]:
                return TriangleMove("CB", l, p, m, a=a, b=b,
                                    c=_other_end(new_partners[0], a))
        if len(crossed) == 2 and not new_partners:
            e1, e2 = partners
            if set(e1) & set(e2) == {a}:
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
    return [y - (y > p) for y in s[:p] + s[p + 1:]]


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

    vertices, circles = {}, {}
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

    Returns (move, deformed link, deformed diagram).  The link is projected
    once; the deformed projection is made from that one by
    ``_deformed_projection``, and the whole deformed link is projected only
    to word the error when it is not regular.  The change in crossing count
    is checked against the classified case.
    """
    proj = project_link(link, direction)
    diagram = diagram_from_projection(proj)
    move, link2 = _classify_removal(diagram, p, link)
    if move.tag == "RIII":
        raise MoveError(
            "a Reidemeister III pattern cannot be realised by a single "
            "vertex removal; move the strands and rebuild instead")
    proj2 = _deformed_projection(proj, link2, p)
    try:
        diagram2 = (build_good_diagram(link2, direction) if proj2 is None
                    else diagram_from_projection(proj2))
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


def _deformed_projection(proj: Projection, link2: PolygonalLink,
                         p: int) -> Optional[Projection]:
    """The projection of ``link2``, the link of the regular projection
    ``proj`` with vertex p removed, along the same direction; None if it is
    not regular.

    It equals what ``project_link`` gives on ``link2``, made as refinement
    makes an insertion's.  Only the new edge l-m is new, so of the checks
    of the whole projection only ``_crossings_along`` l-m is left.  The
    crossings off the removed edges l-p and p-m are kept, renumbered, and
    spliced with those of l-m.  Every point of ``link2`` is one of the old
    link's, so its ints serve.
    """
    link = proj.link
    l, m = link.predecessor(p), link.successor(p)
    kept = _renumbered_crossings(proj.crossings, ((l, p), (p, m)), p, -1)
    pts, scale = link._scaled
    img, depth, scale = _frame(proj.direction, pts[:p - 1] + pts[p:], scale)
    new = (l - (l > p), m - (m > p))
    hits = _crossings_along(new, [e for e in link2.edges() if e != new], img)
    if hits is None:
        return None
    return _spliced(link2, proj.direction, kept, img, depth, scale, hits)
