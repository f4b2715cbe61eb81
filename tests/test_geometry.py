"""Exact predicates, segment intersection, regularity, refinement, deformation."""

from fractions import Fraction as F
import random

import pytest
from hypothesis import given, settings, strategies as st

from polykh.geometry import (GeometryError, DeformationError,
                             DirectionSearchError, PolygonalLink,
                             validate_link, orient2, orient3,
                             seg2_intersection, seg3_intersection,
                             chart_basis, regularity_witness,
                             is_regular_direction, find_regular_direction,
                             refine_to_good, is_good_projection, project_link,
                             triangle_obstruction, deform_add_vertex,
                             deform_remove_vertex, dot3, cross3, sub3,
                             point_on_seg2, DENOMINATOR_BITS, _capped)
from polykh import load_fixture, build_good_diagram

from conftest import DIR_Z, random_link

frac = st.fractions(min_value=-10, max_value=10, max_denominator=8)
pt2 = st.tuples(frac, frac)
pt3 = st.tuples(frac, frac, frac)


# ---------------------------------------------------------------------------
# plain-Fraction reference for the integer kernel: segment intersection,
# regularity and projection decided directly on the rational coordinates


def ref_seg2(p, p2, q, q2):
    r, s = (p2[0] - p[0], p2[1] - p[1]), (q2[0] - q[0], q2[1] - q[1])
    qp = (q[0] - p[0], q[1] - p[1])
    cross = lambda a, b: a[0] * b[1] - a[1] * b[0]
    denom = cross(r, s)
    if denom != 0:
        t, u = F(cross(qp, s), denom), F(cross(qp, r), denom)
        if 0 <= t <= 1 and 0 <= u <= 1:
            return ("point", (t, u, (p[0] + t * r[0], p[1] + t * r[1])))
        return None
    if cross(qp, r) != 0:
        return None
    rr = r[0] * r[0] + r[1] * r[1]
    if rr == 0:
        raise GeometryError("degenerate segment")
    t0 = F(qp[0] * r[0] + qp[1] * r[1], rr)
    t1 = t0 + F(s[0] * r[0] + s[1] * r[1], rr)
    lo, hi = max(min(t0, t1), F(0)), min(max(t0, t1), F(1))
    if lo > hi:
        return None
    if lo == hi:
        return ("point", (lo, F(0), (p[0] + lo * r[0], p[1] + lo * r[1])))
    return ("overlap", (lo, hi))


def ref_seg3(a, b, c, d):
    u, w = sub3(b, a), sub3(d, c)
    if orient3(a, b, c, d) != 0:
        return None
    at = lambda t: tuple(a[i] + t * u[i] for i in range(3))
    nrm = cross3(u, w)
    if nrm == (0, 0, 0):
        if cross3(sub3(c, a), u) != (0, 0, 0):
            return None
        uu = dot3(u, u)
        t0, t1 = sorted((F(dot3(sub3(c, a), u), uu), F(dot3(sub3(d, a), u), uu)))
        lo, hi = max(t0, F(0)), min(t1, F(1))
        if lo > hi:
            return None
        return ("point", at(lo)) if lo == hi else ("overlap", (at(lo), at(hi)))
    k = max(range(3), key=lambda i: abs(nrm[i]))
    x, y = [i for i in range(3) if i != k]
    hit = ref_seg2((a[x], a[y]), (b[x], b[y]), (c[x], c[y]), (d[x], d[y]))
    if hit is None:
        return None
    if hit[0] == "point":
        return ("point", at(hit[1][0]))
    return ("overlap", (at(hit[1][0]), at(hit[1][1])))


def ref_project(link, direction):
    """(witness, crossings as (over, under, point, t_over, t_under))."""
    u, v = chart_basis(direction)
    pts3 = link.all_vertices()
    pts2 = [(dot3(u, p), dot3(v, p)) for p in pts3]
    images = {}
    for gi, q in enumerate(pts2, start=1):
        if q in images:
            return ("vertex_collision", (images[q], gi)), None
        images[q] = gi
    edges = link.edges()
    for gi in range(1, link.n + 1):
        for (a, b) in edges:
            if gi not in (a, b) and point_on_seg2(pts2[gi - 1], pts2[a - 1],
                                                  pts2[b - 1]):
                return ("vertex_on_edge", (gi, (a, b))), None
    depth = lambda e, t: dot3(direction, tuple(
        pts3[e[0] - 1][i] + t * (pts3[e[1] - 1][i] - pts3[e[0] - 1][i])
        for i in range(3)))
    crossings, seen = [], {}
    for idx1, e1 in enumerate(edges):
        for e2 in edges[idx1 + 1:]:
            hit = ref_seg2(pts2[e1[0] - 1], pts2[e1[1] - 1],
                           pts2[e2[0] - 1], pts2[e2[1] - 1])
            if hit is None:
                continue
            if hit[0] == "overlap":
                return ("segment_overlap", (e1, e2)), None
            t, s, pt = hit[1]
            shared = set(e1) & set(e2)
            if shared:
                if pt != pts2[shared.pop() - 1]:
                    return ("adjacent_crossing", (e1, e2)), None
                continue
            if pt in seen:
                return ("triple_point", (seen[pt], (e1, e2))), None
            seen[pt] = (e1, e2)
            if depth(e1, t) > depth(e2, s):
                crossings.append((e1, e2, pt, t, s))
            else:
                crossings.append((e2, e1, pt, s, t))
    return None, crossings


def outcome(fn, *args):
    try:
        return fn(*args)
    except GeometryError as exc:
        return ("error", str(exc))


@st.composite
def segment_pairs(draw, dim):
    """Two segments, often collinear, overlapping or sharing an endpoint."""
    pt = st.tuples(*[frac] * dim)
    a, b = draw(pt), draw(pt)
    mode = draw(st.sampled_from(("free", "shared", "collinear")))
    if mode == "collinear":
        lam = st.fractions(min_value=-2, max_value=2, max_denominator=4)
        l1, l2 = draw(lam), draw(lam)
        c = tuple(a[i] + l1 * (b[i] - a[i]) for i in range(dim))
        d = tuple(a[i] + l2 * (b[i] - a[i]) for i in range(dim))
    else:
        c, d = draw(pt), draw(pt)
        if mode == "shared":
            c = draw(st.sampled_from((a, b)))
            c, d = draw(st.permutations((c, d)))
    return a, b, c, d


# a small grid makes collinear images, vertices on edges and vertex
# collisions common; two-vertex components make overlapping images
grid = st.fractions(min_value=-3, max_value=3, max_denominator=2)
polygons = st.lists(st.tuples(grid, grid, grid), min_size=2, max_size=5)


def through_origin(comp):
    """Each vertex followed by its negative: every other edge passes through
    the origin, so three or more of them make a triple point."""
    return [q for p in comp for q in (p, tuple(-x for x in p))]


small_links = st.one_of(
    st.lists(polygons, min_size=1, max_size=2),
    st.lists(polygons.map(through_origin), min_size=1, max_size=1),
).map(PolygonalLink.from_lists)
directions = st.tuples(
    *[st.fractions(min_value=-3, max_value=3, max_denominator=5)] * 3).filter(
        lambda d: any(d) and any(x.denominator > 1 for x in d))


class TestPredicates:
    def test_orient2_signs(self):
        a, b = (F(0), F(0)), (F(1), F(0))
        assert orient2(a, b, (F(0), F(1))) > 0      # left turn
        assert orient2(a, b, (F(0), F(-1))) < 0     # right turn
        assert orient2(a, b, (F(5), F(0))) == 0     # collinear

    def test_orient3_signs(self):
        a, b, c = (F(0),) * 3, (F(1), F(0), F(0)), (F(0), F(1), F(0))
        assert orient3(a, b, c, (F(0), F(0), F(1))) > 0
        assert orient3(a, b, c, (F(0), F(0), F(-1))) < 0
        assert orient3(a, b, c, (F(2), F(3), F(0))) == 0

    @given(pt2, pt2, pt2)
    def test_orient2_antisymmetry(self, a, b, c):
        assert orient2(a, b, c) == -orient2(b, a, c)
        assert orient2(a, b, c) == orient2(b, c, a)


class TestSegmentIntersection2D:
    def test_transverse_point(self):
        hit = seg2_intersection((F(0), F(0)), (F(2), F(2)),
                                (F(0), F(2)), (F(2), F(0)))
        assert hit is not None and hit[0] == "point"
        t, u, pt = hit[1]
        assert (t, u, pt) == (F(1, 2), F(1, 2), (F(1), F(1)))

    def test_disjoint(self):
        assert seg2_intersection((F(0), F(0)), (F(1), F(0)),
                                 (F(0), F(1)), (F(1), F(1))) is None

    def test_collinear_overlap(self):
        hit = seg2_intersection((F(0), F(0)), (F(2), F(0)),
                                (F(1), F(0)), (F(3), F(0)))
        assert hit is not None and hit[0] == "overlap"

    def test_endpoint_touch_is_a_point(self):
        hit = seg2_intersection((F(0), F(0)), (F(1), F(1)),
                                (F(1), F(1)), (F(2), F(0)))
        assert hit is not None and hit[0] == "point"
        assert hit[1][2] == (F(1), F(1))

    @given(pt2, pt2, pt2, pt2)
    @settings(max_examples=60)
    def test_reported_point_lies_on_both(self, a, b, c, d):
        if a == b or c == d:
            return
        hit = seg2_intersection(a, b, c, d)
        if hit is None or hit[0] != "point":
            return
        t, u, pt = hit[1]
        assert 0 <= t <= 1 and 0 <= u <= 1
        assert pt == tuple(a[i] + t * (b[i] - a[i]) for i in range(2))
        assert pt == tuple(c[i] + u * (d[i] - c[i]) for i in range(2))

    @given(pt2, pt2, pt2, pt2)
    @settings(max_examples=60)
    def test_symmetry(self, a, b, c, d):
        if a == b or c == d:
            return
        h1 = seg2_intersection(a, b, c, d)
        h2 = seg2_intersection(c, d, a, b)
        assert (h1 is None) == (h2 is None)
        if h1 and h1[0] == "point":
            assert h2[0] == "point" and h1[1][2] == h2[1][2]


class TestIntegerKernel:
    """The int kernel against the plain-Fraction reference above."""

    @given(segment_pairs(2))
    @settings(max_examples=150)
    def test_seg2_matches_reference(self, segs):
        assert outcome(seg2_intersection, *segs) == outcome(ref_seg2, *segs)

    @given(segment_pairs(3))
    @settings(max_examples=150)
    def test_seg3_matches_reference(self, segs):
        a, b, _c, _d = segs
        if a == b:
            return
        assert seg3_intersection(*segs) == ref_seg3(*segs)

    @given(small_links, directions)
    @settings(max_examples=120)
    def test_projection_matches_reference(self, link, direction):
        witness, crossings = ref_project(link, direction)
        assert regularity_witness(link, direction) == witness
        if witness is None:
            proj = project_link(link, direction)
            assert [(c.over_edge, c.under_edge, c.point, c.t_over, c.t_under)
                    for c in proj.crossings] == crossings
            u, v = chart_basis(direction)
            assert proj.chart == (u, v)
            assert proj.points2d == tuple((dot3(u, p), dot3(v, p))
                                          for p in link.all_vertices())


class TestSegmentIntersection3D:
    def test_crossing_in_space(self):
        hit = seg3_intersection((F(0), F(0), F(0)), (F(2), F(2), F(2)),
                                (F(0), F(2), F(1)), (F(2), F(0), F(1)))
        assert hit is not None and hit[0] == "point"
        assert hit[1] == (F(1), F(1), F(1))

    def test_skew_lines_miss(self):
        assert seg3_intersection((F(0), F(0), F(0)), (F(1), F(0), F(0)),
                                 (F(0), F(0), F(1)), (F(0), F(1), F(1))) is None


class TestLinkLookups:
    @pytest.mark.parametrize("name", ["two_squares", "whitehead12"])
    def test_lookups_match_component_walk(self, name):
        link = load_fixture(name)
        gi = 0
        for ci, comp in enumerate(link.components):
            lo = gi + 1
            for pos, point in enumerate(comp):
                gi += 1
                assert link.component_of(gi) == ci
                assert link.vertex(gi) == point
                assert link.successor(gi) == lo + (pos + 1) % len(comp)
                assert link.predecessor(gi) == lo + (pos - 1) % len(comp)
            assert link.component_range(ci) == (lo, gi)
        assert link.boundaries[-1] == link.n == gi
        for bad in (0, -1, link.n + 1):
            with pytest.raises(IndexError):
                link.vertex(bad)


class TestValidation:
    def test_fixtures_valid(self):
        for name in ("square", "two_squares", "trefoil9", "whitehead12",
                     "kink5", "riii", "twist12"):
            assert validate_link(load_fixture(name)) == []

    def test_short_component(self):
        link = PolygonalLink.from_lists([[(0, 0, 0), (1, 0, 0)]])
        kinds = [v.kind for v in validate_link(link)]
        assert kinds == ["short_component"]

    def test_collinear_triple(self):
        link = PolygonalLink.from_lists(
            [[(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0)]])
        assert any(v.kind == "collinear_triple" for v in validate_link(link))

    def test_self_intersection(self):
        link = PolygonalLink.from_lists(
            [[(0, 0, 0), (2, 2, 0), (2, 0, 0), (0, 2, 0)]])
        assert any(v.kind == "edge_intersection" for v in validate_link(link))

    def test_duplicate_point(self):
        link = PolygonalLink.from_lists(
            [[(0, 0, 0), (1, 0, 1), (1, 1, 0), (0, 0, 0), (0, 1, 1)]])
        assert any(v.kind == "duplicate_point" for v in validate_link(link))


class TestRegularity:
    def test_chart_basis_orthogonal(self):
        d = (F(1), F(2), F(3))
        u, v = chart_basis(d)
        assert dot3(u, d) == 0 and dot3(v, d) == 0
        assert dot3(cross3(u, v), d) > 0  # right-handed chart

    def test_square_vertical_is_regular(self, square_link):
        ok, witness = is_regular_direction(square_link, DIR_Z)
        assert ok and witness is None

    def test_in_plane_direction_rejected(self, square_link):
        ok, witness = is_regular_direction(square_link, (F(1), F(0), F(0)))
        assert not ok and witness is not None

    def test_trefoil_vertical_is_regular(self, trefoil_link):
        ok, _ = is_regular_direction(trefoil_link, DIR_Z)
        assert ok

    def test_find_regular_direction_deterministic(self, trefoil_link):
        d1 = find_regular_direction(trefoil_link, seed=7)
        d2 = find_regular_direction(trefoil_link, seed=7)
        assert d1 == d2
        assert regularity_witness(trefoil_link, d1) is None

    def test_adjacent_edges_overlapping_in_projection_rejected(self):
        # a doubled-back vertex: two adjacent edges project onto
        # overlapping collinear segments
        link = PolygonalLink.from_lists(
            [[(0, 0, 0), (2, 0, 1), (1, 0, 2), (1, 3, 1)]])
        w = regularity_witness(link, DIR_Z)
        assert w is not None
        assert w[0] in ("segment_overlap", "adjacent_crossing",
                        "vertex_on_edge")


class TestRefinement:
    def test_good_fixtures_unchanged(self, trefoil_link):
        refined = refine_to_good(trefoil_link, DIR_Z)
        assert refined == trefoil_link

    def test_seeded_random_links_refine_to_good(self):
        rng = random.Random(12)
        for _ in range(20):
            link = random_link(rng)
            direction = find_regular_direction(link, seed=rng.randrange(1000))
            refined = refine_to_good(link, direction)
            assert validate_link(refined) == []
            assert is_good_projection(project_link(refined, direction))
            # refinement preserves the underlying knot: homology is checked
            # in the acceptance suite; here just the diagram bound
            diagram = build_good_diagram(refined, direction)
            per_edge = {}
            for cr in diagram.crossings:
                for e in ((cr.i, cr.j), (cr.v, cr.w)):
                    per_edge[e] = per_edge.get(e, 0) + 1
            assert all(c <= 1 for c in per_edge.values())

    def test_long_denominators_rounded_to_grid(self):
        short = (F(1, 3), F(-7, 2 ** (DENOMINATOR_BITS - 1)), F(5))
        assert _capped(short) is short
        long = (F(1, 3 ** 90), F(2, 3), F(-1, 3 ** 81))
        rounded = _capped(long)
        assert all((1 << DENOMINATOR_BITS) % c.denominator == 0
                   for c in rounded)
        assert all(abs(r - c) <= F(1, 2 ** (DENOMINATOR_BITS + 1))
                   for r, c in zip(rounded, long))


class TestDeformation:
    def test_add_then_remove_round_trip(self, trefoil_link):
        apex = (F(-1), F(2), F(3, 2))
        bigger = deform_add_vertex(trefoil_link, 0, 2, apex)
        assert bigger.n == trefoil_link.n + 1
        assert validate_link(bigger) == []
        back = deform_remove_vertex(bigger, 4)
        assert back == trefoil_link

    def test_obstructed_triangle_rejected(self):
        # the swept triangle is pierced by the second component
        link = PolygonalLink.from_lists([
            [(0, 0, 0), (4, 0, 0), (4, 4, 0), (0, 4, 0)],
            [(2, 1, -3), (2, 1, 3), (5, 8, 3), (5, 8, -3)],
        ])
        with pytest.raises(DeformationError):
            deform_add_vertex(link, 0, 0, (F(2), F(2), F(0)))

    def test_apex_on_edge_line_rejected(self, square_link):
        # the midpoint of edge 1-2 spans a degenerate triangle
        with pytest.raises(DeformationError, match="line of edge"):
            deform_add_vertex(square_link, 0, 0, (F(1, 2), F(0), F(0)))

    def test_cannot_shrink_to_two_vertices(self, square_link):
        smaller = deform_remove_vertex(square_link, 1)
        with pytest.raises(DeformationError):
            deform_remove_vertex(smaller, 1)

    def test_triangle_obstruction_reports_edge(self):
        # a segment passing through the middle of the swept triangle
        link = PolygonalLink.from_lists([
            [(0, 0, 0), (4, 0, 0), (4, 4, 0), (0, 4, 0)],
            [(2, 1, -3), (2, 1, 3), (5, 8, 3), (5, 8, -3)],
        ])
        assert validate_link(link) == []
        bad = triangle_obstruction(link, 1, 2, (F(2), F(2), F(0)))
        assert bad is not None and 5 in bad and 6 in bad
