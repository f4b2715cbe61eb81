"""Exact rational geometry for closed polygonal curves in 3-space.

Coordinates are ``fractions.Fraction``s, and nothing here ever touches
floating point, so re-running any test gives the same answer bit for bit.
The O(E^2) loops (link validation, regularity and projection, triangle
obstructions) do not run on Fractions: a point list is scaled once to
``int`` coordinates by the lcm of its denominators (``_integral``), which
changes no orientation sign and no segment parameter, and the predicates
multiply plain ints.  Fractions are made only on a hit, for its parameters,
its point and the values that leave this module.  Per-call tuples are built
from lists, not generators: ``tuple()`` of a generator allocates a small
tuple and resizes it, the resized tuples collect in CPython's tuple free
lists, and peak RSS grew with each repetition of the same work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
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


def _integral(points) -> tuple[list[tuple[int, ...]], int]:
    """``points`` scaled to int coordinates by the lcm of their
    denominators, and that lcm.

    A positive scale changes no orientation sign and no segment parameter,
    so every predicate below can run on the scaled points.
    """
    m = lcm(*{c.denominator for p in points for c in p})
    return [tuple([c.numerator * (m // c.denominator) for c in p])
            for p in points], m


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

    pts, _ = link._scaled
    n = link.n
    seen: dict[tuple, int] = {}
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
        a, b = pts[i1 - 1], pts[j1 - 1]
        for idx2 in range(idx1 + 1, len(edges)):
            i2, j2 = edges[idx2]
            hit = _seg3_hit(a, b, pts[i2 - 1], pts[j2 - 1])
            if hit is None:
                continue
            if hit[0] == "point":
                # the points are distinct, so the hit is the common endpoint
                # exactly when it sits at that end of the first edge
                t, den = hit[1], hit[2]
                if (t == 0 and i1 in (i2, j2)) or (t == den and j1 in (i2, j2)):
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


def _seg3_hit(a, b, c, d):
    """Intersection of the closed segments ab and cd, on int points, with
    parameters along ab.

    Returns None, ("point", t, den) or ("overlap", t0, t1, den): the
    parameters are t/den, t0/den < t1/den, with den > 0.
    """
    u, w, ca = sub3(b, a), sub3(d, c), sub3(c, a)
    nrm = cross3(u, w)
    if dot3(nrm, ca) != 0:
        return None         # not coplanar
    if nrm == ZERO3:
        # parallel; intersect only if collinear
        if cross3(ca, u) != ZERO3:
            return None
        uu = dot3(u, u)
        if uu == 0:
            raise GeometryError("degenerate segment")
        t0, t1 = sorted((dot3(ca, u), dot3(sub3(d, a), u)))
        lo, hi = max(t0, 0), min(t1, uu)
        if lo > hi:
            return None
        return ("point", lo, uu) if lo == hi else ("overlap", lo, hi, uu)
    # coplanar, non-parallel: reduce to 2D along dominant normal axis
    k = max(range(3), key=lambda i: abs(nrm[i]))
    x, y = [i for i in range(3) if i != k]
    hit = _seg2_hit((a[x], a[y]), (b[x], b[y]), (c[x], c[y]), (d[x], d[y]))
    if hit is None:
        return None
    if hit[0] == "point":
        return ("point", hit[1], hit[3])
    return hit


def seg2_intersection(p: Vec2, p2: Vec2, q: Vec2, q2: Vec2):
    """Intersection of closed planar segments.

    Returns None, ("point", (t, s, point)) or ("overlap", (t0, t1)) with
    parameters along the first segment.
    """
    hit = _seg2_hit(*_integral((p, p2, q, q2))[0])
    if hit is None:
        return None
    tag, a, b, den = hit
    if tag == "overlap":
        return ("overlap", (Fraction(a, den), Fraction(b, den)))
    t = Fraction(a, den)
    r = sub2(p2, p)
    return ("point", (t, Fraction(b, den), (p[0] + t * r[0], p[1] + t * r[1])))


def _seg2_hit(p, p2, q, q2):
    """``seg2_intersection`` on int points, without Fractions.

    Returns None, ("point", t, s, den) or ("overlap", t0, t1, den): the
    parameters are t/den along pp2 and s/den along qq2 (s is 0 when the
    segments are collinear and touch in one point), always with den > 0.
    """
    rx, ry = p2[0] - p[0], p2[1] - p[1]
    sx, sy = q2[0] - q[0], q2[1] - q[1]
    qx, qy = q[0] - p[0], q[1] - p[1]
    den = rx * sy - ry * sx
    if den:
        t = qx * sy - qy * sx
        s = qx * ry - qy * rx
        if den < 0:
            den, t, s = -den, -t, -s
        if 0 <= t <= den and 0 <= s <= den:
            return ("point", t, s, den)
        return None
    if qx * ry - qy * rx:
        return None         # parallel, on different lines
    rr = rx * rx + ry * ry
    if rr == 0:
        raise GeometryError("degenerate segment")
    t0 = qx * rx + qy * ry
    t1 = t0 + sx * rx + sy * ry
    t0, t1 = min(t0, t1), max(t0, t1)
    lo, hi = max(t0, 0), min(t1, rr)
    if lo > hi:
        return None
    if lo == hi:
        return ("point", lo, 0, rr)
    return ("overlap", lo, hi, rr)


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
    witness, proj = _project(link, direction)
    if witness is not None:
        raise GeometryError(f"direction {direction} not regular: {witness}")
    return proj


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
    pts, m = link._scaled
    (d,), c = _integral((direction,))
    scale = m * c
    u, v = chart_basis(d)       # c * chart_basis(direction)
    img = [(dot3(u, p), dot3(v, p)) for p in pts]   # scale * chart image

    images: dict[tuple, int] = {}
    for gi, q in enumerate(img, start=1):
        if q in images:
            return ("vertex_collision", (images[q], gi)), None
        images[q] = gi

    edges = link.edges()
    for gi, q in enumerate(img, start=1):
        for (a, b) in edges:
            if gi != a and gi != b and point_on_seg2(q, img[a - 1], img[b - 1]):
                return ("vertex_on_edge", (gi, (a, b))), None

    depth = [dot3(d, p) for p in pts]      # scale * height
    crossings = []
    double_points: dict[Vec2, tuple] = {}
    for idx1, e1 in enumerate(edges):
        a1, b1 = e1
        p, p2 = img[a1 - 1], img[b1 - 1]
        for idx2 in range(idx1 + 1, len(edges)):
            e2 = a2, b2 = edges[idx2]
            hit = _seg2_hit(p, p2, img[a2 - 1], img[b2 - 1])
            if hit is None:
                continue
            tag, t, s, den = hit
            if tag == "overlap":
                return ("segment_overlap", (e1, e2)), None
            if a1 in e2 or b1 in e2:
                # vertex images are distinct, so the hit is the common
                # vertex exactly when it sits at that end of e1
                if (t == 0 and a1 in e2) or (t == den and b1 in e2):
                    continue
                return ("adjacent_crossing", (e1, e2)), None
            # vertex-on-edge already excluded, so this is interior-interior
            pt = (Fraction(p[0] * den + t * (p2[0] - p[0]), den * scale),
                  Fraction(p[1] * den + t * (p2[1] - p[1]), den * scale))
            if pt in double_points:
                return ("triple_point", (double_points[pt], (e1, e2))), None
            double_points[pt] = (e1, e2)
            # den * scale * height of each edge at the crossing
            h1 = depth[a1 - 1] * den + t * (depth[b1 - 1] - depth[a1 - 1])
            h2 = depth[a2 - 1] * den + s * (depth[b2 - 1] - depth[a2 - 1])
            t, s = Fraction(t, den), Fraction(s, den)
            if h1 > h2:
                crossings.append(RawCrossing(e1, e2, pt, t, s))
            else:
                crossings.append(RawCrossing(e2, e1, pt, s, t))
    chart = tuple([tuple([Fraction(x, c) for x in w]) for w in (u, v)])
    points2d = tuple([(Fraction(x, scale), Fraction(y, scale)) for x, y in img])
    return None, Projection(link, direction, chart, points2d, tuple(crossings))


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
    """True if segment pq touches the closed triangle anywhere outside ``allowed``.

    The points may be Fractions or ints at any common scale.
    """
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
    pts, _ = _integral(link.all_vertices() + [apex])
    tri = (pts[gl - 1], pts[-1], pts[gm - 1])
    for (a, b) in link.edges():
        if {a, b} == {gl, gm}:
            continue
        allowed = [pts[g - 1] for g in (a, b) if g in (gl, gm)]
        if segment_meets_triangle_beyond(pts[a - 1], pts[b - 1], tri, allowed):
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


# Exact candidates can double their denominators' length with each vertex
# inserted next to the last one (twist12 along (-1,-3,2) reaches 28063 bits
# by its 39th insertion).  A longer candidate is rounded to the grid
# 2^-DENOMINATOR_BITS, so all rounded vertices share one denominator and the
# lcm that _integral scales by stays small.  The benchmark's refinements
# stay below the cap: at most 33 bits over 375 corpus links along both
# directions, and 107 over the random links of 400 cube-moves seeds.  Each
# bit of cap costs time on twist12: 6.5 s at 64 bits, 11 s at 128.
DENOMINATOR_BITS = 128


def _capped(point: Vec3) -> Vec3:
    """``point``, or ``point`` rounded to the grid 2^-DENOMINATOR_BITS when
    a coordinate's denominator is longer than DENOMINATOR_BITS bits."""
    if all(c.denominator.bit_length() <= DENOMINATOR_BITS for c in point):
        return point
    unit = 1 << DENOMINATOR_BITS
    return tuple(Fraction(round(c * unit), unit) for c in point)


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
    rounded = False
    for _ in range(80):
        for sign in (1, -1):
            exact = add3(base, scale3(push, sign * scale))
            cand = _capped(exact)
            rounded |= cand is not exact
            try:
                new_link = deform_add_vertex(link, ci, pos, cand)
            except DeformationError:
                continue
            witness, new_proj = _project(new_link, direction)
            if witness is not None:
                continue
            if len(new_proj.crossings) != k_before:
                continue
            if _badness(new_proj) >= old_badness:
                continue
            return new_link, new_proj
        scale /= 2
    raise GeometryError(
        f"could not place refinement vertex on edge ({ga},{gb})"
        + (f" with coordinates rounded to denominators of at most "
           f"{DENOMINATOR_BITS} bits" if rounded else ""))
