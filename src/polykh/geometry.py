"""Exact rational geometry for closed polygonal curves in 3-space.

All predicates are decided with ``fractions.Fraction`` arithmetic; nothing
here ever touches floating point, so re-running any test gives the same
answer bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

Vec3 = tuple[Fraction, Fraction, Fraction]
Vec2 = tuple[Fraction, Fraction]

ZERO3 = (Fraction(0), Fraction(0), Fraction(0))


class GeometryError(ValueError):
    pass


class DeformationError(GeometryError):
    """Triangle move blocked by an obstructing edge."""


class DirectionSearchError(GeometryError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


def vec3(x, y, z) -> Vec3:
    return (Fraction(x), Fraction(y), Fraction(z))


def sub3(a: Vec3, b: Vec3) -> Vec3:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def add3(a: Vec3, b: Vec3) -> Vec3:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def scale3(a: Vec3, s) -> Vec3:
    s = Fraction(s)
    return (a[0] * s, a[1] * s, a[2] * s)


def dot3(a: Vec3, b: Vec3) -> Fraction:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross3(a: Vec3, b: Vec3) -> Vec3:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def cross2(a: Vec2, b: Vec2) -> Fraction:
    return a[0] * b[1] - a[1] * b[0]


def sub2(a: Vec2, b: Vec2) -> Vec2:
    return (a[0] - b[0], a[1] - b[1])


def orient2(a: Vec2, b: Vec2, c: Vec2) -> Fraction:
    return cross2(sub2(b, a), sub2(c, a))


def orient3(a: Vec3, b: Vec3, c: Vec3, d: Vec3) -> Fraction:
    return dot3(cross3(sub3(b, a), sub3(c, a)), sub3(d, a))


def collinear3(a: Vec3, b: Vec3, c: Vec3) -> bool:
    return cross3(sub3(b, a), sub3(c, a)) == ZERO3


# ---------------------------------------------------------------------------
# the link itself


@dataclass(frozen=True)
class PolygonalLink:
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
        return sum(len(c) for c in self.components)

    @property
    def boundaries(self) -> tuple[int, ...]:
        """n_1 < n_2 < ... < n_r (n_0 = 0 omitted)."""
        out, tot = [], 0
        for comp in self.components:
            tot += len(comp)
            out.append(tot)
        return tuple(out)

    def component_of(self, gi: int) -> int:
        lo = 0
        for ci, hi in enumerate(self.boundaries):
            if lo < gi <= hi:
                return ci
            lo = hi
        raise IndexError(gi)

    def component_range(self, ci: int) -> tuple[int, int]:
        """(first, last) global index of component ci."""
        bounds = self.boundaries
        lo = 0 if ci == 0 else bounds[ci - 1]
        return lo + 1, bounds[ci]

    def vertex(self, gi: int) -> Vec3:
        ci = self.component_of(gi)
        lo, _ = self.component_range(ci)
        return self.components[ci][gi - lo]

    def successor(self, gi: int) -> int:
        ci = self.component_of(gi)
        lo, hi = self.component_range(ci)
        return lo if gi == hi else gi + 1

    def predecessor(self, gi: int) -> int:
        ci = self.component_of(gi)
        lo, hi = self.component_range(ci)
        return hi if gi == lo else gi - 1

    def edges(self) -> list[tuple[int, int]]:
        return [(gi, self.successor(gi)) for gi in range(1, self.n + 1)]

    def all_vertices(self) -> list[Vec3]:
        out = []
        for comp in self.components:
            out.extend(comp)
        return out

    def with_vertex_inserted(self, ci: int, pos: int, point: Vec3) -> "PolygonalLink":
        """New link with ``point`` inserted after local position ``pos`` (0-based)."""
        comp = list(self.components[ci])
        comp.insert(pos + 1, point)
        comps = list(self.components)
        comps[ci] = tuple(comp)
        return PolygonalLink(tuple(comps))

    def with_vertex_removed(self, gi: int) -> "PolygonalLink":
        ci = self.component_of(gi)
        lo, _ = self.component_range(ci)
        comp = list(self.components[ci])
        del comp[gi - lo]
        comps = list(self.components)
        comps[ci] = tuple(comp)
        return PolygonalLink(tuple(comps))


@dataclass(frozen=True)
class Violation:
    kind: str
    indices: tuple
    message: str

    def __str__(self):
        return self.message


def validate_link(link: PolygonalLink) -> list[Violation]:
    """All invariant violations of the link; empty list means valid."""
    out: list[Violation] = []
    for ci, comp in enumerate(link.components):
        if len(comp) < 3:
            out.append(Violation("short_component", (ci,),
                                 f"component {ci} needs >= 3 vertices, has {len(comp)}"))
    if out:
        return out

    pts = link.all_vertices()
    n = link.n
    seen: dict[Vec3, int] = {}
    for gi, p in enumerate(pts, start=1):
        if p in seen:
            out.append(Violation("duplicate_point", (seen[p], gi),
                                 f"duplicate point at indices ({seen[p]},{gi})"))
        else:
            seen[p] = gi
    if out:
        # coincident points make the edge-geometry checks degenerate
        return out

    for gi in range(1, n + 1):
        a, b, c = link.predecessor(gi), gi, link.successor(gi)
        if collinear3(pts[a - 1], pts[b - 1], pts[c - 1]):
            out.append(Violation("collinear_triple", (a, b, c),
                                 f"collinear consecutive points ({a},{b},{c})"))

    edges = link.edges()
    for idx1 in range(len(edges)):
        i1, j1 = edges[idx1]
        for idx2 in range(idx1 + 1, len(edges)):
            i2, j2 = edges[idx2]
            shared = {i1, j1} & {i2, j2}
            kind = seg3_intersection(pts[i1 - 1], pts[j1 - 1], pts[i2 - 1], pts[j2 - 1])
            if kind is None:
                continue
            tag, data = kind
            if tag == "point":
                shared_pts = {pts[g - 1] for g in shared}
                if data in shared_pts:
                    continue
                out.append(Violation("edge_intersection", ((i1, j1), (i2, j2)),
                                     f"edges ({i1},{j1}) and ({i2},{j2}) intersect "
                                     f"away from a common endpoint"))
            else:
                out.append(Violation("edge_overlap", ((i1, j1), (i2, j2)),
                                     f"edges ({i1},{j1}) and ({i2},{j2}) overlap in a segment"))
    return out


# ---------------------------------------------------------------------------
# segment intersection, 3D and 2D


def seg3_intersection(a: Vec3, b: Vec3, c: Vec3, d: Vec3):
    """Intersection of closed segments ab and cd.

    Returns None, ("point", P) or ("overlap", (P, Q)).
    """
    u, w = sub3(b, a), sub3(d, c)
    if orient3(a, b, c, d) != 0:
        return None
    nrm = cross3(u, w)
    if nrm == ZERO3:
        # parallel; intersect only if collinear
        if cross3(sub3(c, a), u) != ZERO3:
            return None
        uu = dot3(u, u)
        t0, t1 = sorted((Fraction(dot3(sub3(c, a), u), uu),
                         Fraction(dot3(sub3(d, a), u), uu)))
        lo, hi = max(t0, Fraction(0)), min(t1, Fraction(1))
        if lo > hi:
            return None
        p, q = add3(a, scale3(u, lo)), add3(a, scale3(u, hi))
        return ("point", p) if lo == hi else ("overlap", (p, q))
    # coplanar, non-parallel: reduce to 2D along dominant normal axis
    k = max(range(3), key=lambda i: abs(nrm[i]))
    keep = [i for i in range(3) if i != k]
    p2 = lambda v: (v[keep[0]], v[keep[1]])
    hit = seg2_intersection(p2(a), p2(b), p2(c), p2(d))
    if hit is None:
        return None
    tag, data = hit
    if tag == "point":
        t, _s, _pt = data
        return ("point", add3(a, scale3(u, t)))
    (t0, t1) = data
    p, q = add3(a, scale3(u, t0)), add3(a, scale3(u, t1))
    return ("point", p) if t0 == t1 else ("overlap", (p, q))


def seg2_intersection(p: Vec2, p2: Vec2, q: Vec2, q2: Vec2):
    """Intersection of closed planar segments.

    Returns None, ("point", (t, s, point)) or ("overlap", (t0, t1)) with
    parameters along the first segment.
    """
    r, s = sub2(p2, p), sub2(q2, q)
    denom = cross2(r, s)
    qp = sub2(q, p)
    if denom != 0:
        t = Fraction(cross2(qp, s), denom)
        u = Fraction(cross2(qp, r), denom)
        if 0 <= t <= 1 and 0 <= u <= 1:
            pt = (p[0] + t * r[0], p[1] + t * r[1])
            return ("point", (t, u, pt))
        return None
    if cross2(qp, r) != 0:
        return None
    rr = cross2(r, r)  # zero; use dot for projection instead
    rr = r[0] * r[0] + r[1] * r[1]
    if rr == 0:
        raise GeometryError("degenerate segment")
    t0 = Fraction(qp[0] * r[0] + qp[1] * r[1], rr)
    t1 = t0 + Fraction(s[0] * r[0] + s[1] * r[1], rr)
    t0, t1 = sorted((t0, t1))
    lo, hi = max(t0, Fraction(0)), min(t1, Fraction(1))
    if lo > hi:
        return None
    if lo == hi:
        pt = (p[0] + lo * r[0], p[1] + lo * r[1])
        return ("point", (lo, Fraction(0), pt))
    return ("overlap", (lo, hi))


def point_on_seg2(x: Vec2, a: Vec2, b: Vec2) -> bool:
    if orient2(a, b, x) != 0:
        return False
    return (min(a[0], b[0]) <= x[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= x[1] <= max(a[1], b[1]))


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
    if k == 0:
        u, v = (-b, a, Fraction(0)), (-c, Fraction(0), a)
    elif k == 1:
        u, v = (b, -a, Fraction(0)), (Fraction(0), -c, b)
    else:
        u, v = (c, Fraction(0), -a), (Fraction(0), c, -b)
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


@dataclass(frozen=True)
class Projection:
    link: PolygonalLink
    direction: Vec3
    chart: tuple[Vec3, Vec3]
    points2d: tuple[Vec2, ...]  # image of global vertex i at index i-1
    crossings: tuple[RawCrossing, ...]

    def point2d(self, gi: int) -> Vec2:
        return self.points2d[gi - 1]


def project_link(link: PolygonalLink, direction: Vec3) -> Projection:
    """Project; raises GeometryError if the direction is not regular."""
    witness = regularity_witness(link, direction)
    if witness is not None:
        raise GeometryError(f"direction {direction} not regular: {witness}")
    return _project_unchecked(link, direction)


def _project_unchecked(link: PolygonalLink, direction: Vec3) -> Projection:
    u, v = chart_basis(direction)
    pts3 = link.all_vertices()
    pts2 = tuple((dot3(u, p), dot3(v, p)) for p in pts3)
    crossings = []
    edges = link.edges()
    for idx1 in range(len(edges)):
        e1 = edges[idx1]
        for idx2 in range(idx1 + 1, len(edges)):
            e2 = edges[idx2]
            if {e1[0], e1[1]} & {e2[0], e2[1]}:
                continue
            hit = seg2_intersection(pts2[e1[0] - 1], pts2[e1[1] - 1],
                                    pts2[e2[0] - 1], pts2[e2[1] - 1])
            if hit is None or hit[0] != "point":
                continue
            t, s, pt = hit[1]
            h1 = _depth_at(link, direction, e1, t)
            h2 = _depth_at(link, direction, e2, s)
            if h1 > h2:
                crossings.append(RawCrossing(e1, e2, pt, t, s))
            else:
                crossings.append(RawCrossing(e2, e1, pt, s, t))
    return Projection(link, direction, (u, v), pts2, tuple(crossings))


def _depth_at(link: PolygonalLink, direction: Vec3, edge, t: Fraction) -> Fraction:
    p = link.vertex(edge[0])
    q = link.vertex(edge[1])
    pt = add3(p, scale3(sub3(q, p), t))
    return dot3(direction, pt)


def regularity_witness(link: PolygonalLink, direction: Vec3):
    """None if the projection along ``direction`` is regular, else a witness.

    Beyond the textbook conditions (isolated double points, no triple points,
    no vertex on a double point, distinct vertex images) this also rejects a
    direction that makes two edges sharing a vertex cross: the crossing would
    involve fewer than four distinct vertex indices, which the smoothing
    calculus cannot label.  The rejected set is still a finite union of planes
    and lines, so sampling terminates.
    """
    if direction == ZERO3:
        return ("zero_direction", ())
    u, v = chart_basis(direction)
    pts3 = link.all_vertices()
    pts2 = [(dot3(u, p), dot3(v, p)) for p in pts3]
    n = link.n

    images: dict[Vec2, int] = {}
    for gi in range(1, n + 1):
        q = pts2[gi - 1]
        if q in images:
            return ("vertex_collision", (images[q], gi))
        images[q] = gi

    edges = link.edges()
    for gi in range(1, n + 1):
        for (a, b) in edges:
            if gi in (a, b):
                continue
            if point_on_seg2(pts2[gi - 1], pts2[a - 1], pts2[b - 1]):
                return ("vertex_on_edge", (gi, (a, b)))

    double_points: dict[Vec2, tuple] = {}
    for idx1 in range(len(edges)):
        e1 = edges[idx1]
        for idx2 in range(idx1 + 1, len(edges)):
            e2 = edges[idx2]
            shared = {e1[0], e1[1]} & {e2[0], e2[1]}
            hit = seg2_intersection(pts2[e1[0] - 1], pts2[e1[1] - 1],
                                    pts2[e2[0] - 1], pts2[e2[1] - 1])
            if hit is None:
                continue
            if hit[0] == "overlap":
                return ("segment_overlap", (e1, e2))
            t, s, pt = hit[1]
            if shared:
                shared_img = pts2[shared.pop() - 1]
                if pt != shared_img:
                    return ("adjacent_crossing", (e1, e2))
                continue
            # vertex-on-edge already excluded, so this is interior-interior
            if pt in double_points:
                return ("triple_point", (double_points[pt], (e1, e2)))
            double_points[pt] = (e1, e2)
    return None


def is_regular_direction(link: PolygonalLink, direction: Vec3):
    """(bool, witness-or-None)."""
    w = regularity_witness(link, direction)
    return (w is None, w)


def find_regular_direction(link: PolygonalLink, seed: int = 0,
                           budget: int = 10000) -> Vec3:
    """Seeded rejection sampling of small-integer directions."""
    rng = random.Random(seed)
    bound = 3
    witness = None
    for attempt in range(budget):
        if attempt and attempt % 500 == 0:
            bound *= 2
        cand = vec3(rng.randint(-bound, bound),
                    rng.randint(-bound, bound),
                    rng.randint(-bound, bound))
        if cand == ZERO3:
            continue
        witness = regularity_witness(link, cand)
        if witness is None:
            return cand
    raise DirectionSearchError(
        f"no regular direction in {budget} attempts", witness=witness)


# ---------------------------------------------------------------------------
# triangle deformations


def _clip_seg_to_triangle2(p: Vec2, q: Vec2, tri: tuple[Vec2, Vec2, Vec2]):
    """Parameter interval [t0,t1] of segment pq inside the closed triangle, or None."""
    a, b, c = tri
    orient = orient2(a, b, c)
    if orient == 0:
        raise GeometryError("degenerate triangle")
    lo, hi = Fraction(0), Fraction(1)
    for (e1, e2) in ((a, b), (b, c), (c, a)):
        f0 = orient2(e1, e2, p) * (1 if orient > 0 else -1)
        f1 = orient2(e1, e2, q) * (1 if orient > 0 else -1)
        if f0 < 0 and f1 < 0:
            return None
        if f0 < 0 or f1 < 0:
            t = Fraction(f0, f0 - f1)
            if f0 < 0:
                lo = max(lo, t)
            else:
                hi = min(hi, t)
        if lo > hi:
            return None
    return (lo, hi)


def _point_in_triangle2(x: Vec2, tri) -> bool:
    a, b, c = tri
    o = orient2(a, b, c)
    sgn = 1 if o > 0 else -1
    return all(orient2(e1, e2, x) * sgn >= 0 for (e1, e2) in ((a, b), (b, c), (c, a)))


def segment_meets_triangle_beyond(p: Vec3, q: Vec3, tri: tuple[Vec3, Vec3, Vec3],
                                  allowed: Sequence[Vec3]) -> bool:
    """True if segment pq touches the closed triangle anywhere outside ``allowed``."""
    a, b, c = tri
    d1 = orient3(a, b, c, p)
    d2 = orient3(a, b, c, q)
    if (d1 > 0 and d2 > 0) or (d1 < 0 and d2 < 0):
        return False
    nrm = cross3(sub3(b, a), sub3(c, a))
    if nrm == ZERO3:
        raise GeometryError("degenerate triangle")
    k = max(range(3), key=lambda i: abs(nrm[i]))
    keep = [i for i in range(3) if i != k]
    flat = lambda v: (v[keep[0]], v[keep[1]])
    tri2 = (flat(a), flat(b), flat(c))
    if d1 == 0 and d2 == 0:
        clip = _clip_seg_to_triangle2(flat(p), flat(q), tri2)
        if clip is None:
            return False
        t0, t1 = clip
        if t0 == t1:
            x = add3(p, scale3(sub3(q, p), t0))
            return x not in allowed
        return True  # a whole subsegment lies in the triangle
    if d1 == 0 or d2 == 0:
        x = p if d1 == 0 else q
        return _point_in_triangle2(flat(x), tri2) and x not in allowed
    t = Fraction(d1, d1 - d2)
    x = add3(p, scale3(sub3(q, p), t))
    return _point_in_triangle2(flat(x), tri2) and x not in allowed


def triangle_obstruction(link: PolygonalLink, gl: int, gm: int,
                         apex: Vec3) -> Optional[tuple[int, int]]:
    """First link edge meeting triangle (q_l, apex, q_m) beyond segment l-m.

    ``link`` must contain the edge l-m (it is the replaced segment); the legal
    intersection is exactly that segment.  Returns None when the triangle is
    clear, else the offending edge.
    """
    ql, qm = link.vertex(gl), link.vertex(gm)
    tri = (ql, apex, qm)
    for (a, b) in link.edges():
        if {a, b} == {gl, gm}:
            continue
        allowed = []
        if a in (gl, gm):
            allowed.append(link.vertex(a))
        if b in (gl, gm):
            allowed.append(link.vertex(b))
        if segment_meets_triangle_beyond(link.vertex(a), link.vertex(b), tri, allowed):
            return (a, b)
    return None


def deform_add_vertex(link: PolygonalLink, ci: int, pos: int,
                      point: Vec3) -> PolygonalLink:
    """Insert ``point`` between local positions pos and pos+1 of component ci.

    The spanned triangle must meet the link exactly in the replaced segment.
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
    problems = validate_link(new)
    if problems:
        raise DeformationError(f"insertion breaks link validity: {problems[0]}")
    return new


def deform_remove_vertex(link: PolygonalLink, gp: int) -> PolygonalLink:
    """Remove global vertex gp; the freed triangle must be clear."""
    ci = link.component_of(gp)
    if len(link.components[ci]) <= 3:
        raise DeformationError("cannot shrink a component below 3 vertices")
    gl, gm = link.predecessor(gp), link.successor(gp)
    apex = link.vertex(gp)
    new = link.with_vertex_removed(gp)
    problems = validate_link(new)
    if problems:
        raise DeformationError(f"removal breaks link validity: {problems[0]}")
    # relocate l, m in the renumbered link
    ngl = gl if gl < gp else gl - 1
    ngm = gm if gm < gp else gm - 1
    bad = triangle_obstruction(new, ngl, ngm, apex)
    if bad is not None:
        # report in original numbering
        orig = tuple(x if x < gp else x + 1 for x in bad)
        raise DeformationError(
            f"triangle ({gl},{gp},{gm}) obstructed by edge {orig}")
    return new


# ---------------------------------------------------------------------------
# refinement to a good diagram


def _badness(proj: Projection) -> int:
    per_edge: dict[tuple[int, int], int] = {}
    adjacent = 0
    for cr in proj.crossings:
        for e in (cr.over_edge, cr.under_edge):
            per_edge[e] = per_edge.get(e, 0) + 1
        if len({*cr.over_edge, *cr.under_edge}) < 4:
            adjacent += 1
    return sum(c - 1 for c in per_edge.values() if c > 1) + adjacent


def is_good_projection(proj: Projection) -> bool:
    return _badness(proj) == 0


def refine_to_good(link: PolygonalLink, direction: Vec3,
                   max_rounds: int = 500) -> PolygonalLink:
    """Insert vertices (type-I deformations) until every edge image carries
    at most one crossing and every crossing involves four distinct vertices.

    New vertices sit at the midpoint between two crossing parameters, pushed
    off the edge along the rational direction (edge x dir); the push size is
    halved until the deformation triangle is verifiably empty and the
    projection stays regular without changing the crossing count.
    """
    proj = project_link(link, direction)
    for _ in range(max_rounds):
        bad = _badness(proj)
        if bad == 0:
            return link
        target = _pick_refinement_target(proj)
        link, proj = _insert_refinement_vertex(link, direction, proj, target, bad)
    raise GeometryError("refinement did not converge")


def _simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The smallest-denominator rational strictly between lo and hi.

    Keeping subdivision parameters simple stops coordinate denominators from
    compounding across refinement rounds.
    """
    fl = lo.numerator // lo.denominator
    if lo < fl + 1 < hi:
        return Fraction(fl + 1)
    lo2, hi2 = lo - fl, hi - fl
    if lo2 == 0:
        n = (Fraction(1) / hi2).numerator // (Fraction(1) / hi2).denominator + 1
        return fl + Fraction(1, n)
    return fl + 1 / _simplest_between(1 / hi2, 1 / lo2)


def _pick_refinement_target(proj: Projection):
    """(edge, base parameter t) for the next vertex insertion."""
    link = proj.link
    per_edge: dict[tuple[int, int], list[Fraction]] = {}
    for cr in proj.crossings:
        per_edge.setdefault(cr.over_edge, []).append(cr.t_over)
        per_edge.setdefault(cr.under_edge, []).append(cr.t_under)
    for edge, ts in sorted(per_edge.items()):
        if len(ts) >= 2:
            t1, t2 = sorted(ts)[:2]
            return (edge, _simplest_between(t1, t2))
    for cr in proj.crossings:
        common = {*cr.over_edge} & {*cr.under_edge}
        if not common:
            continue
        x = common.pop()
        # subdivide the over edge between the shared vertex and the crossing
        edge, t = cr.over_edge, cr.t_over
        base = (_simplest_between(Fraction(0), t) if edge[0] == x
                else _simplest_between(t, Fraction(1)))
        return (edge, base)
    raise GeometryError("no refinement target found")  # pragma: no cover


def _insert_refinement_vertex(link, direction, proj, target, old_badness):
    (ga, gb), t = target
    pa, pb = link.vertex(ga), link.vertex(gb)
    base = add3(pa, scale3(sub3(pb, pa), t))
    push = cross3(sub3(pb, pa), direction)
    if push == ZERO3:
        raise GeometryError("edge parallel to projection direction")
    m = max(abs(c) for c in push)
    push = scale3(push, Fraction(1, m))  # max-norm 1, still rational
    ci = link.component_of(ga)
    lo, _ = link.component_range(ci)
    pos = ga - lo
    k_before = len(proj.crossings)
    scale = Fraction(1, 4)
    for _ in range(80):
        for sign in (1, -1):
            cand = add3(base, scale3(push, sign * scale))
            try:
                new_link = deform_add_vertex(link, ci, pos, cand)
            except DeformationError:
                continue
            if regularity_witness(new_link, direction) is not None:
                continue
            new_proj = _project_unchecked(new_link, direction)
            if len(new_proj.crossings) != k_before:
                continue
            if _badness(new_proj) >= old_badness:
                continue
            return new_link, new_proj
        scale /= 2
    raise GeometryError(f"could not place refinement vertex on edge ({ga},{gb})")
