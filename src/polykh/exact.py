"""Exact predicates on points in the plane and in 3-space: vector algebra,
orientation tests, segment intersection and segment-triangle incidence.

Coordinates are ``fractions.Fraction``s, and nothing here ever touches
floating point, so re-running any test gives the same answer bit for bit.
The O(E^2) loops of ``polykh.geometry`` do not run on Fractions: a point
list is scaled once to ``int`` coordinates by the lcm of its denominators
(``_integral``), which changes no orientation sign and no segment parameter,
and the predicates here multiply plain ints.  Per-call tuples are built from
lists, not generators: ``tuple()`` of a generator allocates a small tuple
and resizes it, the resized tuples collect in CPython's tuple free lists,
and peak RSS grew with each repetition of the same work.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Vec3 = tuple[Fraction, Fraction, Fraction]
Vec2 = tuple[Fraction, Fraction]

ZERO3 = (Fraction(0), Fraction(0), Fraction(0))


class GeometryError(ValueError):
    pass


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


def _integral_with(pts, m: int, point: Vec3):
    """``point`` scaled to ints together with ``pts``, int points at scale
    m: (a new list of ``pts`` at the common scale, ``point`` at it, and the
    extra factor g, the common scale being m * g).

    Only the point's denominators are read, so a link's cached ints need
    not be made again for each point checked against it.
    """
    g = 1
    for x in point:
        g = lcm(g, x.denominator // gcd(x.denominator, m))
    q = tuple([x.numerator * (m * g // x.denominator) for x in point])
    if g == 1:
        return list(pts), q, g
    return [(x * g, y * g, z * g) for x, y, z in pts], q, g


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


# ---------------------------------------------------------------------------
# a segment against a triangle


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


def segment_meets_triangle_beyond(p: Vec3, q: Vec3, d1, d2,
                                  tri: tuple[Vec3, Vec3, Vec3],
                                  allowed: Sequence[Vec3]) -> bool:
    """True if segment pq touches the closed triangle anywhere outside
    ``allowed``, a list of its ends, given d1 and d2: the heights of p and q
    over the triangle's plane, times its normal.

    The points may be Fractions or ints at any common scale.  Off the plane,
    pq meets it in one point, which lies in the triangle exactly when pq
    turns one way (or not at all) about each side: the point itself is never
    computed.
    """
    if d1 * d2 > 0:
        return False
    a, b, c = tri
    if d1 == d2 == 0:
        nrm = cross3(sub3(b, a), sub3(c, a))
        k = max(range(3), key=lambda i: abs(nrm[i]))
        x, y = [i for i in range(3) if i != k]
        clip = _clip_seg_to_triangle2((p[x], p[y]), (q[x], q[y]),
                                      [(v[x], v[y]) for v in tri])
        # a single point of the triangle may be an allowed end
        return clip is not None and (
            clip[0] != clip[1]
            or add3(p, scale3(sub3(q, p), clip[0])) not in allowed)
    if (d1 == 0 and p in allowed) or (d2 == 0 and q in allowed):
        return False
    sides = [orient3(p, q, a, b), orient3(p, q, b, c), orient3(p, q, c, a)]
    return min(sides) >= 0 or max(sides) <= 0


def _obstruction(pts, edges, tri, ends):
    """The first of ``edges``, index pairs into the points ``pts``, that
    meets the closed triangle ``tri`` anywhere but at its own ends among the
    indices ``ends``; None if none does."""
    a, b, c = tri
    nrm = cross3(sub3(b, a), sub3(c, a))
    if nrm == ZERO3:
        raise GeometryError("degenerate triangle")
    height = [dot3(nrm, sub3(p, a)) for p in pts]
    for i, j in edges:
        if height[i - 1] * height[j - 1] <= 0 and segment_meets_triangle_beyond(
                pts[i - 1], pts[j - 1], height[i - 1], height[j - 1], tri,
                [pts[g - 1] for g in (i, j) if g in ends]):
            return i, j
    return None
