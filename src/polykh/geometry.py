"""Closed polygonal curves in 3-space, in exact rational coordinates:
validation, projection along a direction, triangle deformations and
refinement to a good diagram.

The predicates come from ``polykh.exact``: the O(E^2) loops (link
validation, regularity and projection) and the triangle checks run on the
link's points scaled once to ints (``_integral``).  Fractions are made only
on a hit, for its parameters, its point and the values that leave this
module.

A ``Projection`` holds a link, a direction and its crossings; the vertex
images follow from the two.  ``_frame`` makes a direction's int images and
heights, and ``_spliced`` orders the crossings of a local update.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Iterable, Optional, Sequence

from .exact import (GeometryError, Vec2, Vec3, ZERO3, _integral,
                    _integral_with, _obstruction, _seg2_hit, _seg3_hit,
                    _simplest_between, add3, collinear3, cross2, cross3,
                    dot3, scale3, sub2, sub3, vec3)


class DeformationError(GeometryError):
    """Triangle move blocked by an obstructing edge."""


class DirectionSearchError(GeometryError):
    """No regular direction within the sampling budget."""


# ---------------------------------------------------------------------------
# the link itself


class ComponentNeighbours:
    """Component-successor and -predecessor lookups of global vertex
    indices, for a class whose ``boundaries`` holds the last global index
    of each component, n_1 < ... < n_r."""

    @cached_property
    def _neighbours(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The successors and the predecessors of global vertex gi, each at
        index gi - 1."""
        succ, pred, lo = [], [], 0
        for hi in self.boundaries:
            succ.extend(range(lo + 2, hi + 1))
            succ.append(lo + 1)
            pred.append(hi)
            pred.extend(range(lo + 1, hi))
            lo = hi
        return tuple(succ), tuple(pred)

    def successor(self, gi: int) -> int:
        succ = self._neighbours[0]
        if not 0 < gi <= len(succ):
            raise IndexError(gi)
        return succ[gi - 1]

    def predecessor(self, gi: int) -> int:
        pred = self._neighbours[1]
        if not 0 < gi <= len(pred):
            raise IndexError(gi)
        return pred[gi - 1]


@dataclass(frozen=True)
class PolygonalLink(ComponentNeighbours):
    """A disjoint union of closed polygonal curves, as cyclic vertex tuples.

    Vertices carry global indices 1..n, component after component; the
    component boundaries n_0 < n_1 < ... < n_r follow from the tuple lengths.
    """

    components: tuple[tuple[Vec3, ...], ...]

    @classmethod
    def from_lists(cls, comps: Iterable[Iterable[Sequence]]) -> "PolygonalLink":
        return cls(
            tuple(
                tuple(vec3(*p) for p in comp)
                for comp in comps
            )
        )

    @property
    def n(self) -> int:
        return len(self._owner)

    @cached_property
    def boundaries(self) -> tuple[int, ...]:
        """n_1 < n_2 < ... < n_r (n_0 = 0 omitted)."""
        out, tot = [], 0
        for comp in self.components:
            tot += len(comp)
            out.append(tot)
        return tuple(out)

    @cached_property
    def _owner(self) -> tuple[int, ...]:
        """The component of global vertex gi, at index gi - 1."""
        return tuple([ci for ci, comp in enumerate(self.components)
                      for _ in comp])

    @cached_property
    def _scaled(self) -> tuple[list[tuple[int, ...]], int]:
        """All vertices in global order, scaled to ints by ``_integral``."""
        return _integral(self.all_vertices())

    def component_of(self, gi: int) -> int:
        if not 0 < gi <= len(self._owner):
            raise IndexError(gi)
        return self._owner[gi - 1]

    def component_range(self, ci: int) -> tuple[int, int]:
        """(first, last) global index of component ci."""
        bounds = self.boundaries
        lo = 0 if ci == 0 else bounds[ci - 1]
        return lo + 1, bounds[ci]

    def vertex(self, gi: int) -> Vec3:
        ci = self.component_of(gi)
        lo, _ = self.component_range(ci)
        return self.components[ci][gi - lo]

    def edges(self) -> list[tuple[int, int]]:
        return [(gi, self.successor(gi)) for gi in range(1, self.n + 1)]

    def all_vertices(self) -> list[Vec3]:
        return [p for comp in self.components for p in comp]

    def with_vertex_inserted(self, ci: int, pos: int, point: Vec3) -> "PolygonalLink":
        """New link with ``point`` inserted after local position ``pos`` (0-based)."""
        comp = self.components[ci]
        return self._with(ci, comp[:pos + 1] + (point,) + comp[pos + 1:])

    def with_vertex_removed(self, gi: int) -> "PolygonalLink":
        ci = self.component_of(gi)
        pos, comp = gi - self.component_range(ci)[0], self.components[ci]
        return self._with(ci, comp[:pos] + comp[pos + 1:])

    def _with(self, ci: int, comp: tuple[Vec3, ...]) -> "PolygonalLink":
        comps = self.components
        return PolygonalLink(comps[:ci] + (comp,) + comps[ci + 1:])


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str

    def __str__(self):
        return self.message


def validate_link(link: PolygonalLink) -> list[Violation]:
    """All invariant violations of the link; empty list means valid."""
    out: list[Violation] = []
    for ci, comp in enumerate(link.components):
        if len(comp) < 3:
            out.append(Violation("short_component", f"component {ci} needs "
                                 f">= 3 vertices, has {len(comp)}"))
    if out:
        return out

    pts, _ = link._scaled
    n = link.n
    seen: dict[tuple, int] = {}
    for gi, p in enumerate(pts, start=1):
        if p in seen:
            out.append(Violation("duplicate_point", f"duplicate point at "
                                 f"indices ({seen[p]},{gi})"))
        else:
            seen[p] = gi
    if out:
        # coincident points make the edge-geometry checks degenerate
        return out

    out += _collinear_triples(link, pts, range(1, n + 1))
    edges = link.edges()
    for idx1, e1 in enumerate(edges):
        out += filter(None, [_pair_violation(pts, e1, e2)
                             for e2 in edges[idx1 + 1:]])
    return out


def _collinear_triples(link: PolygonalLink, pts, middles) -> list[Violation]:
    """The collinear consecutive triples of the link centred on the global
    indices ``middles``, given its points ``pts`` (at any common scale)."""
    out = []
    for b in middles:
        a, c = link.predecessor(b), link.successor(b)
        if collinear3(pts[a - 1], pts[b - 1], pts[c - 1]):
            out.append(Violation("collinear_triple", f"collinear "
                                 f"consecutive points ({a},{b},{c})"))
    return out


def _pair_violation(pts, e1, e2) -> Optional[Violation]:
    """How edge e1 meets the later edge e2 other than in a common endpoint,
    given the link's distinct int points ``pts``; None if it does not."""
    (i1, j1), (i2, j2) = e1, e2
    hit = _seg3_hit(pts[i1 - 1], pts[j1 - 1], pts[i2 - 1], pts[j2 - 1])
    if hit is None:
        return None
    if hit[0] == "point":
        # the points are distinct, so the hit is the common endpoint exactly
        # when it sits at that end of the first edge
        t, den = hit[1], hit[2]
        if (t == 0 and i1 in e2) or (t == den and j1 in e2):
            return None
        return Violation("edge_intersection", f"edges ({i1},{j1}) and "
                         f"({i2},{j2}) intersect away from a common endpoint")
    return Violation("edge_overlap", f"edges ({i1},{j1}) and ({i2},{j2}) "
                     "overlap in a segment")


# ---------------------------------------------------------------------------
# projection along a direction


def chart_basis(direction: Vec3) -> tuple[Vec3, Vec3]:
    """Two rational covectors (u, v) spanning functionals that kill ``direction``,
    ordered so that (u, v, direction) is positively oriented.

    The chart p -> (u.p, v.p) is an injective linear coordinate on the
    projection plane; it need not be conformal, only orientation-preserving.
    """
    d = direction
    if d == ZERO3:
        raise GeometryError("direction must be nonzero")
    k = max(range(3), key=lambda i: abs(d[i]))
    a, b, c = d
    o = a - a   # zero of the direction's own number type
    if k == 0:
        u, v = (-b, a, o), (-c, o, a)
    elif k == 1:
        u, v = (b, -a, o), (o, -c, b)
    else:
        u, v = (c, o, -a), (o, c, -b)
    if dot3(cross3(u, v), d) < 0:
        u, v = v, u
    assert dot3(cross3(u, v), d) > 0
    return u, v


@dataclass(frozen=True)
class RawCrossing:
    """A transverse double point of the projection, before enumeration."""

    over_edge: tuple[int, int]
    under_edge: tuple[int, int]
    point: Vec2
    t_over: Fraction
    t_under: Fraction
    sign: int       # of the crossing in the chart, as ``crossing_sign``


@dataclass(frozen=True)
class Projection:
    link: PolygonalLink
    direction: Vec3
    crossings: tuple[RawCrossing, ...]     # in edge-pair order

    @cached_property
    def points2d(self) -> tuple[Vec2, ...]:
        """The chart image of global vertex i at index i-1."""
        img, _, scale = _frame(self.direction, *self.link._scaled)
        return tuple([(Fraction(x, scale), Fraction(y, scale)) for x, y in img])


def project_link(link: PolygonalLink, direction: Vec3) -> Projection:
    """Project; raises GeometryError, naming the witness in words, if the
    direction is not regular."""
    witness, proj = _project(link, direction)
    if witness is not None:
        raise GeometryError(
            f"direction {','.join(map(str, direction))} is not regular: "
            f"{_witness_words(witness)}")
    return proj


# the regularity witnesses in words, with (a,b) for the edge a->b
_WITNESS_WORDS = {
    "zero_direction": "it is the zero vector",
    "vertex_collision": "the images of vertices {} and {} coincide",
    "vertex_on_edge": "the image of vertex {} lies on the image of edge {}",
    "segment_overlap": "the images of edges {} and {} overlap",
    "adjacent_crossing": "the images of edges {} and {} cross beyond their "
                         "common vertex",
    "triple_point": "edges {} and {} cross where edges {} and {} do",
}


def _witness_words(witness) -> str:
    """A regularity witness's vertices and edges filled into its tag's
    sentence."""
    tag, data = witness
    if tag == "triple_point":
        data = data[0] + data[1]        # two pairs of edges
    return _WITNESS_WORDS[tag].format(
        *[x if isinstance(x, int) else f"({x[0]},{x[1]})" for x in data])


def regularity_witness(link: PolygonalLink, direction: Vec3):
    """None if the projection along ``direction`` is regular, else a witness.

    Beyond the textbook conditions (isolated double points, no triple points,
    no vertex on a double point, distinct vertex images) this also rejects a
    direction that makes two edges sharing a vertex cross: the crossing would
    involve fewer than four distinct vertex indices, which the smoothing
    calculus cannot label.  The rejected set is still a finite union of planes
    and lines, so sampling terminates.
    """
    return _project(link, direction)[0]


def _project(link: PolygonalLink, direction: Vec3):
    """(witness, None), or (None, projection) for a regular ``direction``.

    One pass decides regularity and collects the crossings.  The witness is
    the first failure in this order: vertex images collide (by vertex); a
    vertex image lies on an edge it does not bound (by vertex, then edge);
    then, over edge pairs in order, two images overlap, adjacent edges cross
    beyond their common vertex, or a double point repeats.
    """
    if direction == ZERO3:
        return ("zero_direction", ()), None
    img, depth, scale = _frame(direction, *link._scaled)

    images: dict[tuple, int] = {}
    for gi, q in enumerate(img, start=1):
        if q in images:
            return ("vertex_collision", (images[q], gi)), None
        images[q] = gi

    edges = link.edges()
    for gi, (qx, qy) in enumerate(img, start=1):
        for (a, b) in edges:
            (ax, ay), (bx, by) = img[a - 1], img[b - 1]
            if ((bx - ax) * (qy - ay) == (by - ay) * (qx - ax)
                    and gi != a and gi != b
                    and min(ax, bx) <= qx <= max(ax, bx)
                    and min(ay, by) <= qy <= max(ay, by)):
                return ("vertex_on_edge", (gi, (a, b))), None

    crossings = []
    double_points: dict[Vec2, tuple] = {}
    for idx1, e1 in enumerate(edges):
        for e2, *hit in _meetings(e1, img[e1[0] - 1], img[e1[1] - 1],
                                  edges[idx1 + 1:], img):
            if len(hit) == 1:
                return (hit[0], (e1, e2)), None
            cr = _raw_crossing(e1, e2, *hit, img, depth, scale)
            if cr.point in double_points:
                return ("triple_point", (double_points[cr.point], (e1, e2))), None
            double_points[cr.point] = (e1, e2)
            crossings.append(cr)
    return None, Projection(link, direction, tuple(crossings))


def _frame(direction: Vec3, pts, scale: int):
    """(images, heights, c * scale) of the int points ``pts``, ``scale``
    times a link's, along ``direction``: ints, c * scale times the chart
    images and heights, for the least c that makes c * direction integral."""
    (d,), c = _integral((direction,))
    u, v = chart_basis(d)
    return ([(dot3(u, p), dot3(v, p)) for p in pts], [dot3(d, p) for p in pts],
            scale * c)


def _meetings(e1, p, p2, edges, img):
    """Where the image p p2 of edge e1 meets the images of ``edges``, in
    order, passing over a common vertex: (e2, t, s, den) for a crossing at
    parameters t/den along e1 and s/den along e2, interior to both; else
    (e2, witness tag), and nothing after it."""
    a1, b1 = e1
    for e2 in edges:
        hit = _seg2_hit(p, p2, img[e2[0] - 1], img[e2[1] - 1])
        if hit is None:
            continue
        tag, t, s, den = hit
        if tag == "overlap":
            yield e2, "segment_overlap"
            return
        if a1 in e2 or b1 in e2:
            # vertex images are distinct, so the hit is the common vertex
            # exactly when it sits at that end of e1
            if (t == 0 and a1 in e2) or (t == den and b1 in e2):
                continue
            yield e2, "adjacent_crossing"
            return
        if t == 0 or t == den or s == 0 or s == den:
            yield e2, "vertex_on_edge"
            return
        yield e2, t, s, den


def _raw_crossing(e1, e2, t, s, den, img, depth, scale) -> RawCrossing:
    """The crossing of the images of edges e1 and e2 at parameters t/den
    along e1 and s/den along e2, given ``img`` and ``depth``, the vertex
    images and heights times ``scale``: the edge that is higher there is
    the over edge, and the sign is that of (over edge) x (under edge)."""
    (a1, b1), (a2, b2) = e1, e2
    p, p2 = img[a1 - 1], img[b1 - 1]
    sign = 1 if cross2(sub2(p2, p), sub2(img[b2 - 1], img[a2 - 1])) > 0 else -1
    pt = (Fraction(p[0] * den + t * (p2[0] - p[0]), den * scale),
          Fraction(p[1] * den + t * (p2[1] - p[1]), den * scale))
    # den * scale * height of each edge at the crossing
    h1 = depth[a1 - 1] * den + t * (depth[b1 - 1] - depth[a1 - 1])
    h2 = depth[a2 - 1] * den + s * (depth[b2 - 1] - depth[a2 - 1])
    t, s = Fraction(t, den), Fraction(s, den)
    if h1 > h2:
        return RawCrossing(e1, e2, pt, t, s, sign)
    return RawCrossing(e2, e1, pt, s, t, -sign)


def find_regular_direction(link: PolygonalLink, seed: int = 0,
                           budget: int = 10000) -> Vec3:
    """Seeded rejection sampling of small-integer directions."""
    rng = random.Random(seed)
    bound = 3
    for attempt in range(budget):
        if attempt and attempt % 500 == 0:
            bound *= 2
        cand = vec3(rng.randint(-bound, bound),
                    rng.randint(-bound, bound),
                    rng.randint(-bound, bound))
        if regularity_witness(link, cand) is None:
            return cand
    raise DirectionSearchError(f"no regular direction in {budget} attempts")


# ---------------------------------------------------------------------------
# triangle deformations


def triangle_obstruction(link: PolygonalLink, gl: int, gm: int,
                         apex: Vec3) -> Optional[tuple[int, int]]:
    """First link edge meeting triangle (q_l, apex, q_m) beyond segment l-m.

    ``link`` must contain the edge l-m (it is the replaced segment); the legal
    intersection is exactly that segment.  Returns None when the triangle is
    clear, else the offending edge.
    """
    pts, q, _ = _integral_with(*link._scaled, apex)
    edges = [e for e in link.edges() if {*e} != {gl, gm}]
    return _obstruction(pts, edges, (pts[gl - 1], q, pts[gm - 1]), (gl, gm))


def deform_add_vertex(link: PolygonalLink, ci: int, pos: int,
                      point: Vec3) -> PolygonalLink:
    """Insert ``point`` between local positions pos and pos+1 of component ci
    of the valid ``link``.

    The spanned triangle must meet the link exactly in the replaced segment.
    Once it does, a new edge meets no other edge and the point repeats no
    vertex, so of ``validate_link`` on the new link only the new triples at
    l and m can fail; they are checked, in its order and words.
    """
    lo, hi = link.component_range(ci)
    gl = lo + pos
    gm = link.successor(gl)
    if collinear3(link.vertex(gl), point, link.vertex(gm)):
        raise DeformationError(
            f"apex {point} lies on the line of edge ({gl},{gm})")
    bad = triangle_obstruction(link, gl, gm, point)
    if bad is not None:
        raise DeformationError(
            f"triangle ({gl},{gm},new) obstructed by edge {bad}")
    new = link.with_vertex_inserted(ci, pos, point)
    problems = _collinear_triples(new, new._scaled[0],
                                  sorted((gl, gm + (gm > gl))))
    if problems:
        raise DeformationError(f"insertion breaks link validity: {problems[0]}")
    return new


def deform_remove_vertex(link: PolygonalLink, gp: int) -> PolygonalLink:
    """Remove global vertex gp of the valid ``link``; the freed triangle must
    be clear.

    Of ``validate_link`` on the new link only the new edge l-m and its two
    triples can fail; they are checked, in its order and words, on the
    link's own ints.
    """
    ci = link.component_of(gp)
    if len(link.components[ci]) <= 3:
        raise DeformationError("cannot shrink a component below 3 vertices")
    gl, gm = link.predecessor(gp), link.successor(gp)
    new = link.with_vertex_removed(gp)
    pts = link._scaled[0]
    kept = pts[:gp - 1] + pts[gp:]
    # l and m in the renumbered link
    ngl, ngm = gl - (gl > gp), gm - (gm > gp)
    problems = _collinear_triples(new, kept, sorted((ngl, ngm)))
    # an edge before l-m comes first in its pair
    problems += filter(None, (_pair_violation(kept, *sorted((e, (ngl, ngm))))
                              for e in new.edges() if e != (ngl, ngm)))
    if problems:
        raise DeformationError(f"removal breaks link validity: {problems[0]}")
    bad = _obstruction(pts, [e for e in link.edges() if gp not in e],
                       (pts[gl - 1], pts[gp - 1], pts[gm - 1]), (gl, gm))
    if bad is not None:
        raise DeformationError(
            f"triangle ({gl},{gp},{gm}) obstructed by edge {bad}")
    return new


# ---------------------------------------------------------------------------
# refinement to a good diagram

MAX_REFINEMENT_ROUNDS = 500     # insertions before refinement gives up


def _badness(proj: Projection) -> int:
    """The crossings beyond the first on each edge image."""
    edges = [e for cr in proj.crossings for e in (cr.over_edge, cr.under_edge)]
    return len(edges) - len(set(edges))


def refine_to_good(link: PolygonalLink, direction: Vec3) -> PolygonalLink:
    """Insert vertices (type-I deformations) until every edge image carries
    at most one crossing.  ``link`` must be valid, as ``load_link`` and the
    deformations leave it.

    New vertices sit at the midpoint between two crossing parameters, pushed
    off the edge along the rational direction (edge x dir); the push size is
    halved until the deformation triangle is verifiably empty and the
    projection stays regular without changing the crossing count.
    """
    return _good_projection(link, direction).link


def _good_projection(link: PolygonalLink, direction: Vec3) -> Projection:
    """``refine_to_good``, returning the refined link's good projection."""
    proj = project_link(link, direction)
    for _ in range(MAX_REFINEMENT_ROUNDS):
        bad = _badness(proj)
        if bad == 0:
            return proj
        proj = _insert_refinement_vertex(proj, _pick_refinement_target(proj),
                                         bad)
    raise GeometryError("refinement did not converge")


def _pick_refinement_target(proj: Projection):
    """(edge, base parameter t) for the next vertex insertion: between the
    first two crossings on the first edge that carries two.  A regular
    projection has no crossing of two edges that share a vertex."""
    per_edge: dict[tuple[int, int], list[Fraction]] = {}
    for cr in proj.crossings:
        per_edge.setdefault(cr.over_edge, []).append(cr.t_over)
        per_edge.setdefault(cr.under_edge, []).append(cr.t_under)
    for edge, ts in sorted(per_edge.items()):
        if len(ts) >= 2:
            t1, t2 = sorted(ts)[:2]
            return (edge, _simplest_between(t1, t2))
    raise GeometryError("no refinement target found")  # pragma: no cover


# Exact candidates can double their denominators' length with each vertex
# inserted next to the last one (twist12 along (-1,-3,2) reaches 28063 bits
# by its 39th insertion).  A longer candidate is rounded to the grid
# 2^-DENOMINATOR_BITS, so all rounded vertices share one denominator and the
# lcm that _integral scales by stays small.  The benchmark's refinements
# stay below the cap: at most 33 bits over 375 corpus links along both
# directions, and 107 over the random links of 400 cube-moves seeds.  With
# candidates checked in O(E) the cap costs little: twist12's diagram takes
# 0.23-0.27 s at 64 bits and 0.29-0.32 s at 128 (in-process, 2-core Xeon).
DENOMINATOR_BITS = 128


def _capped(point: Vec3) -> Vec3:
    """``point``, or ``point`` rounded to the grid 2^-DENOMINATOR_BITS when
    a coordinate's denominator is longer than DENOMINATOR_BITS bits."""
    if all(c.denominator.bit_length() <= DENOMINATOR_BITS for c in point):
        return point
    unit = 1 << DENOMINATOR_BITS
    return tuple(Fraction(round(c * unit), unit) for c in point)


def _insert_refinement_vertex(proj: Projection, target,
                              old_badness: int) -> Projection:
    """The projection of ``proj.link`` with a vertex inserted on the target
    edge (gl, gm): the first candidate, pushed off the edge in halving
    steps, that keeps the link valid and the projection regular, with as
    many crossings and a lower badness.

    It equals what ``deform_add_vertex`` and ``_project`` give, but neither
    runs per candidate: ``_new_crossings`` checks a candidate in O(E), and
    the old crossings off the replaced edge, renumbered and spliced with the
    new ones, are the new projection's.
    """
    link, direction = proj.link, proj.direction
    (gl, gm), t = target
    ci = link.component_of(gl)
    pa, pb = link.vertex(gl), link.vertex(gm)
    base = add3(pa, scale3(sub3(pb, pa), t))
    push = cross3(sub3(pb, pa), direction)
    if push == ZERO3:
        raise GeometryError("edge parallel to projection direction")
    m = max(abs(c) for c in push)
    push = scale3(push, Fraction(1, m))  # max-norm 1, still rational
    check = _new_crossings(proj, gl, gm)
    # the new vertex is gl + 1, and every later index moves up by one
    kept = _renumbered_crossings(proj.crossings, ((gl, gm),), gl, 1)
    kept_edges = [e for cr in kept for e in (cr.over_edge, cr.under_edge)]
    scale = Fraction(1, 4)
    rounded = False
    for _ in range(80):
        step = scale3(push, scale)
        for exact in (add3(base, step), sub3(base, step)):
            cand = _capped(exact)
            rounded |= cand is not exact
            found = check(cand)
            if found is None or len(found[-1]) + len(kept) != len(proj.crossings):
                continue
            edges = kept_edges + [e for hit in found[-1] for e in hit[:2]]
            if len(edges) - len(set(edges)) < old_badness:
                return _spliced(link.with_vertex_inserted(
                    ci, gl - link.component_range(ci)[0], cand), direction,
                    kept, *found)
        scale /= 2
    raise GeometryError(
        f"could not place refinement vertex on edge ({gl},{gm})"
        + (f" with coordinates rounded to denominators of at most "
           f"{DENOMINATOR_BITS} bits" if rounded else ""))


def _new_crossings(proj: Projection, gl: int, gm: int):
    """A check of the candidate vertices on edge (gl, gm) of the valid link
    of the regular projection ``proj``, numbered gl + 1.  It returns None
    if inserting a candidate leaves the link invalid or its projection not
    regular, else (the new link's ``_frame``, and the crossings of the new
    edges as (new edge, other edge, t, s, den)).

    Only the new vertex and its two edges are new, so of the checks that
    ``validate_link`` and ``_project`` run on the whole new link, those
    that do not involve them pass already.  The rest are:
    - in 3D, the triangle (gl, new, gm) is clear, the new point repeats no
      vertex and its three new consecutive triples are not collinear.  A new
      edge that met another edge would obstruct the triangle.
    - in the plane, the new image repeats no image, and each new edge meets
      the other edges only at their common vertex or in crossings interior
      to both (``_meetings``): an image on an edge is a hit at an end.
      Every triple point would lie twice on one new edge, at one parameter.
    The old link's int points and edges are made once.
    """
    link = proj.link
    pts0, m = link._scaled
    n, gp, gs = gl + 1, link.predecessor(gl), link.successor(gm)
    gm, gp, gs = [g + (g > gl) for g in (gm, gp, gs)]
    others = [(a + (a > gl), b + (b > gl)) for a, b in link.edges() if a != gl]

    def check(cand: Vec3):
        pts, new, g = _integral_with(pts0, m, cand)
        pts.insert(gl, new)
        a, b = pts[gl - 1], pts[gm - 1]
        if (collinear3(a, new, b) or pts.count(new) > 1
                or collinear3(pts[gp - 1], a, new)
                or collinear3(new, b, pts[gs - 1])
                or _obstruction(pts, others, (a, new, b), (gl, gm))):
            return None
        img, depth, scale = _frame(proj.direction, pts, m * g)
        if img.count(img[gl]) > 1:
            return None
        hits = []
        for e1, edges in (((gl, n), others + [(n, gm)]), ((n, gm), others)):
            found = _crossings_along(e1, edges, img)
            if found is None:
                return None
            hits += found
        return img, depth, scale, hits
    return check


def _crossings_along(e1, edges, img):
    """The crossings of the image of the new edge e1 with those of
    ``edges``, given ``img``, the vertex images as ints, as (e1, e2, t, s,
    den) in ``_meetings``' order; None at a witness of ``_meetings``, or
    where two share a parameter along e1: a triple point."""
    hits, params = [], set()
    for e2, *hit in _meetings(e1, img[e1[0] - 1], img[e1[1] - 1], edges, img):
        if len(hit) == 1:
            return None
        t, s, den = hit
        k = gcd(t, den)
        if (t // k, den // k) in params:
            return None
        params.add((t // k, den // k))
        hits.append((e1, e2, t, s, den))
    return hits


def _renumbered_crossings(crossings, gone, g0: int, step: int):
    """The ``crossings`` on none of the edges ``gone``, with every vertex
    index above g0 moved by ``step``."""
    return [RawCrossing(*[tuple([g + step * (g > g0) for g in e])
                          for e in (cr.over_edge, cr.under_edge)],
                        cr.point, cr.t_over, cr.t_under, cr.sign)
            for cr in crossings
            if cr.over_edge not in gone and cr.under_edge not in gone]


def _spliced(link, direction, kept, img, depth, scale, hits) -> Projection:
    """The projection of ``link`` along ``direction`` with the crossings
    ``kept`` from an older one and those of ``hits``, (e1, e2, t, s, den)
    on ``_frame``'s images and heights, in ``_project``'s order."""
    crossings = kept + [_raw_crossing(*hit, img, depth, scale) for hit in hits]
    return Projection(link, direction, tuple(sorted(
        crossings, key=lambda cr: sorted((cr.over_edge, cr.under_edge)))))
