"""Exact predicates, segment intersection, regularity, refinement, deformation."""

from collections import Counter
from fractions import Fraction as F
import random

import inspect
import itertools
import re
import sys
import types

import pytest
from hypothesis import given, settings, strategies as st

from polykh.exact import (orient2, orient3, seg2_intersection, dot3, cross3,
                          sub3, add3, scale3, segment_meets_triangle_beyond,
                          _clip_seg_to_triangle2, _integral, _seg3_hit)
from polykh.geometry import (GeometryError, DeformationError,
                             DirectionSearchError, PolygonalLink,
                             validate_link, chart_basis,
                             regularity_witness, find_regular_direction,
                             refine_to_good, project_link,
                             triangle_obstruction, deform_add_vertex,
                             deform_remove_vertex, DENOMINATOR_BITS, _capped)
from polykh import geometry, load_fixture, build_good_diagram
from polykh.diagram import crossing_sign

from conftest import (DIR_Z, outcome_of, point_in_triangle2, point_on_seg2,
                      random_diagram, random_link, random_refinement,
                      reference_add_vertex, reference_insertion,
                      reference_obstruction, reference_remove_vertex,
                      reference_step, refinement_candidates, refine_reference,
                      seeded_apexes)

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
    """None, ("point", t) or ("overlap", (t0, t1)), parameters along ab."""
    u, w = sub3(b, a), sub3(d, c)
    if orient3(a, b, c, d) != 0:
        return None
    nrm = cross3(u, w)
    if nrm == (0, 0, 0):
        if cross3(sub3(c, a), u) != (0, 0, 0):
            return None
        uu = dot3(u, u)
        t0, t1 = sorted((F(dot3(sub3(c, a), u), uu), F(dot3(sub3(d, a), u), uu)))
        lo, hi = max(t0, F(0)), min(t1, F(1))
        if lo > hi:
            return None
        return ("point", lo) if lo == hi else ("overlap", (lo, hi))
    k = max(range(3), key=lambda i: abs(nrm[i]))
    x, y = [i for i in range(3) if i != k]
    hit = ref_seg2((a[x], a[y]), (b[x], b[y]), (c[x], c[y]), (d[x], d[y]))
    if hit is None:
        return None
    if hit[0] == "point":
        return ("point", hit[1][0])
    return ("overlap", hit[1])


def ref_meets_triangle(p, q, tri, allowed):
    """``segment_meets_triangle_beyond`` on Fractions: the point where pq
    reaches the triangle's plane, tested against the triangle in the plane
    of its two least normal axes."""
    a, b, c = tri
    d1, d2 = orient3(a, b, c, p), orient3(a, b, c, q)
    if d1 * d2 > 0:
        return False
    nrm = cross3(sub3(b, a), sub3(c, a))
    k = max(range(3), key=lambda i: abs(nrm[i]))
    flat = lambda v: tuple(v[i] for i in range(3) if i != k)
    tri2 = [flat(v) for v in tri]
    if d1 == d2 == 0:
        clip = _clip_seg_to_triangle2(flat(p), flat(q), tri2)
        if clip is None:
            return False
        x = tuple(p[i] + clip[0] * (q[i] - p[i]) for i in range(3))
        return clip[0] != clip[1] or x not in allowed
    t = F(d1, d1 - d2)
    x = tuple(p[i] + t * (q[i] - p[i]) for i in range(3))
    return point_in_triangle2(flat(x), tri2) and x not in allowed


def seg3_params(a, b, c, d):
    """``_seg3_hit`` on the int images of the four points, with its
    parameters along ab as Fractions, as ``ref_seg3`` gives them."""
    hit = _seg3_hit(*_integral((a, b, c, d))[0])
    if hit is None:
        return None
    if hit[0] == "point":
        return ("point", F(hit[1], hit[2]))
    _tag, lo, hi, den = hit
    return ("overlap", (F(lo, den), F(hi, den)))


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
        assert seg3_params(*segs) == ref_seg3(*segs)

    @given(st.lists(st.tuples(*[st.integers(-2, 2)] * 3), min_size=5,
                    max_size=5), st.booleans())
    @settings(max_examples=300)
    def test_triangle_kernel_matches_reference(self, points, ends_allowed):
        # a grid of small ints gives corners, edges and planes in common
        a, b, c, p, q = [tuple(map(F, v)) for v in points]
        tri = (a, b, c)
        if cross3(sub3(b, a), sub3(c, a)) == (0, 0, 0) or p == q:
            return
        allowed = [x for x in (p, q) if ends_allowed and x in (a, c)]
        assert segment_meets_triangle_beyond(
            p, q, orient3(a, b, c, p), orient3(a, b, c, q), tri,
            allowed) == ref_meets_triangle(p, q, tri, allowed)

    @given(small_links, directions)
    @settings(max_examples=120)
    def test_projection_matches_reference(self, link, direction):
        witness, crossings = ref_project(link, direction)
        assert regularity_witness(link, direction) == witness
        if witness is None:
            proj = project_link(link, direction)
            assert [(c.over_edge, c.under_edge, c.point, c.t_over, c.t_under)
                    for c in proj.crossings] == crossings
            # the sign decided on the int images, against the Fractions
            assert [c.sign for c in proj.crossings] == [
                crossing_sign(*[proj.points2d[g - 1]
                                for g in c.over_edge + c.under_edge])
                for c in proj.crossings]
            u, v = chart_basis(direction)
            assert proj.points2d == tuple((dot3(u, p), dot3(v, p))
                                          for p in link.all_vertices())


class TestSegmentIntersection3D:
    def test_crossing_in_space(self):
        # the diagonals meet at (1, 1, 1), halfway along the first
        assert seg3_params((F(0), F(0), F(0)), (F(2), F(2), F(2)),
                           (F(0), F(2), F(1)),
                           (F(2), F(0), F(1))) == ("point", F(1, 2))

    def test_skew_lines_miss(self):
        assert seg3_params((F(0), F(0), F(0)), (F(1), F(0), F(0)),
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
        assert regularity_witness(square_link, DIR_Z) is None

    def test_in_plane_direction_rejected(self, square_link):
        assert regularity_witness(square_link,
                                  (F(1), F(0), F(0))) is not None

    def test_zero_direction_named_in_words(self, square_link):
        with pytest.raises(GeometryError) as exc:
            project_link(square_link, (F(0), F(0), F(0)))
        assert str(exc.value) == ("direction 0,0,0 is not regular: it is "
                                  "the zero vector")

    def test_trefoil_vertical_is_regular(self, trefoil_link):
        assert regularity_witness(trefoil_link, DIR_Z) is None

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
            assert geometry._badness(project_link(refined, direction)) == 0
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


@pytest.fixture(scope="module")
def refinement_inputs():
    """(link, direction): the seven fixtures along the direction the CLI
    picks, but twist12 along (0, 0, 1); the links of random_diagram seeds
    0-14 before refinement; and the mirrors of all of them along
    (dx, dy, -dz)."""
    inputs = []
    for name in ("square", "two_squares", "trefoil9", "whitehead12", "kink5",
                 "riii", "twist12"):
        link = load_fixture(name)
        inputs.append((link, DIR_Z if name == "twist12"
                       else find_regular_direction(link)))
    for seed in range(15):
        _diagram, _refined, direction, link = random_refinement(
            random.Random(seed))
        inputs.append((link, direction))
    return inputs + [
        (PolygonalLink(tuple(tuple((x, y, -z) for x, y, z in comp)
                             for comp in link.components)),
         (d[0], d[1], -d[2])) for link, d in inputs]


HALVES = (F(-1, 2), F(0), F(1, 2))


def candidate_cases(inputs):
    """(projection, target, candidate) at the first insertion of
    each refinement input: the first six candidates that refinement tries,
    and the base point and the edge's first vertex moved on a grid of
    halves, which puts vertex images on edges and on each other, obstructs
    triangles and lines the apex up with the edge."""
    for link, direction in inputs:
        proj = project_link(link, direction)
        if not geometry._badness(proj):
            continue
        target = geometry._pick_refinement_target(proj)
        (ga, gb), t = target
        pa, pb = link.vertex(ga), link.vertex(gb)
        base = add3(pa, scale3(sub3(pb, pa), t))
        cands = list(itertools.islice(refinement_candidates(proj, target), 6))
        cands += [add3(p, step) for p in (base, pa)
                  for step in itertools.product(HALVES, repeat=3)]
        for cand in cands:
            yield proj, target, cand


@pytest.fixture(scope="module")
def candidates(refinement_inputs):
    """Each candidate case with the reference's verdict: does the vertex
    keep the link valid and the direction regular?"""
    return [(proj, target, cand,
             reference_insertion(proj, target, cand) is not None)
            for proj, target, cand in candidate_cases(refinement_inputs)]


@pytest.fixture(scope="module")
def reference_steps(refinement_inputs):
    """(projection, target, badness, the reference's next projection) at
    every insertion of the refinement inputs."""
    steps = []
    for link, direction in refinement_inputs:
        proj = project_link(link, direction)
        while bad := geometry._badness(proj):
            target = geometry._pick_refinement_target(proj)
            steps.append((proj, target, bad,
                          reference_step(proj, target, bad)))
            proj = steps[-1][-1]
    return steps


def fields(proj):
    """A projection as plain values, to compare across module copies, with
    the vertex images, which projection equality does not compare."""
    return (proj.link.components, proj.points2d, tuple(
        (cr.over_edge, cr.under_edge, cr.point, cr.t_over, cr.t_under)
        for cr in proj.crossings))


def mismatches(module, candidates, steps) -> int:
    """Where ``module``'s O(E) check disagrees with the reference: in its
    verdict on a candidate, or in the projection after an insertion."""
    count = sum((module._new_crossings(proj, *target[0])(cand) is not None)
                != regular for proj, target, cand, regular in candidates)
    for proj, target, bad, expected in steps:
        try:
            got = fields(module._insert_refinement_vertex(proj, target, bad))
        except (module.GeometryError, LookupError):
            got = None
        count += got != fields(expected)
    return count


class TestRefinementCheck:
    """The O(E) candidate check of refinement against ``deform_add_vertex``
    and ``_project`` on the whole new link."""

    def test_refinement_matches_reference(self, refinement_inputs):
        for link, direction in refinement_inputs:
            refined = refine_to_good(link, direction)
            expected = refine_reference(link, direction)
            assert refined == expected.link
            assert project_link(refined, direction) == expected
            got = geometry._good_projection(link, direction)
            assert fields(got) == fields(expected)

    def test_candidates_match_reference(self, candidates, reference_steps):
        assert len(candidates) > 1000 and len(reference_steps) > 60
        assert {regular for *_, regular in candidates} == {False, True}
        assert mismatches(geometry, candidates, reference_steps) == 0

    @pytest.mark.parametrize("old, new", [
        # the new vertex's image on an edge goes unseen
        ("if t == 0 or t == den or s == 0 or s == den:",
         "if s == 0 or s == den:"),
        # the triangle is never checked
        ("or _obstruction(pts, others,", "or None and _obstruction(pts, others,"),
        # the old crossings keep their old edge numbers
        ("return [RawCrossing(*[tuple([g + step * (g > g0) for g in e])",
         "return [RawCrossing(*[tuple([g for g in e])"),
        # the spliced crossings come in (over edge, under edge) order
        ("key=lambda cr: sorted((cr.over_edge, cr.under_edge))",
         "key=lambda cr: (cr.over_edge, cr.under_edge)"),
    ], ids=["image_on_edge", "triangle", "renumbering", "sort_key"])
    def test_mutant_caught(self, monkeypatch, candidates, reference_steps,
                           old, new):
        source = inspect.getsource(geometry)
        assert source.count(old) == 1
        mutant = types.ModuleType("polykh.geometry_mutant")
        mutant.__package__ = "polykh"
        monkeypatch.setitem(sys.modules, mutant.__name__, mutant)
        exec(compile(source.replace(old, new), mutant.__name__, "exec"),
             mutant.__dict__)
        assert mismatches(mutant, candidates, reference_steps) > 0

    def test_work_per_candidate(self, monkeypatch):
        # twist12 along its default direction (-1,-3,2) makes 90 insertions
        # of about two candidates each; the whole link is projected once,
        # before the first, and never validated
        link = load_fixture("twist12")
        direction = find_regular_direction(link)
        assert direction == (-1, -3, 2)
        calls = Counter()

        def counting(name, real):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapped

        for name in ("_project", "validate_link", "deform_add_vertex"):
            monkeypatch.setattr(geometry, name,
                                counting(name, getattr(geometry, name)))
        refined = refine_to_good(link, direction)
        assert refined.n - link.n == 90
        assert calls == {"_project": 1}


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


FIXTURES = ("square", "two_squares", "trefoil9", "whitehead12", "kink5",
            "riii", "twist12")
PENT = [(0, 0, 0), (2, 2, 0), (4, 0, 0), (4, -3, 0), (0, -3, 0)]
# removals of vertex 2 that break validity only through the new edge 1-3
# or its triples: the new edge lines up with the edge after it (at m) or
# before it (at l), is pierced by another strand, or overlaps another edge
BROKEN_BY_REMOVAL = {
    "triple_at_m": [[(0, 0, 0), (1, 1, 0), (2, 0, 0), (3, 0, 0), (3, -2, 0),
                     (0, -2, 0)]],
    "triple_at_l": [[(1, 0, 0), (2, 1, 0), (3, 0, 0), (3, -2, 0), (0, -2, 0),
                     (0, 0, 0)]],
    "pierced": [PENT, [(2, 0, -1), (2, 0, 1), (6, 5, 1), (6, 5, -1)]],
    "overlap": [PENT, [(1, 0, 0), (3, 0, 0), (2, 1, 2)]],
}


@pytest.fixture(scope="module")
def deformation_links():
    """The fixtures, the refined links of random_diagram seeds 0-5 (made as
    the benchmark's cube-moves items are), six raw random links (as its
    corpus links are) and the links of BROKEN_BY_REMOVAL."""
    links = [load_fixture(name) for name in FIXTURES]
    links += [random_diagram(random.Random(seed))[1] for seed in range(6)]
    links += [random_link(random.Random(seed)) for seed in range(100, 106)]
    links += [PolygonalLink.from_lists(comps)
              for comps in BROKEN_BY_REMOVAL.values()]
    assert all(validate_link(link) == [] for link in links)
    return links


def deformations(links):
    """(function name, args) of seeded insertions on ``links`` and of the
    removals of every vertex of them, and of the inserted vertex and its
    neighbours after each insertion that holds."""
    for i, link in enumerate(links):
        for p in range(1, link.n + 1):
            yield "deform_remove_vertex", (link, p)
        for ci, pos, apex in seeded_apexes(link, random.Random(i), 12):
            yield "deform_add_vertex", (link, ci, pos, apex)
            bigger = outcome_of(reference_add_vertex, link, ci, pos, apex)
            if not isinstance(bigger, str):
                gl = link.component_range(ci)[0] + pos
                for p in (gl, gl + 1, bigger.successor(gl + 1)):
                    yield "deform_remove_vertex", (bigger, p)


REFERENCES = {"deform_add_vertex": reference_add_vertex,
              "deform_remove_vertex": reference_remove_vertex}


def plain(result):
    """A deformation's outcome as plain values, to compare across module
    copies: the new link's components, or the error's words."""
    return result if isinstance(result, str) else result.components


@pytest.fixture(scope="module")
def deformation_cases(deformation_links):
    """Each deformation with the outcome of its reference, which validates
    the whole new link."""
    return [(name, args, plain(outcome_of(REFERENCES[name], *args)))
            for name, args in deformations(deformation_links)]


def deformation_mismatches(module, cases) -> int:
    return sum(plain(outcome_of(getattr(module, name), *args)) != expected
               for name, args, expected in cases)


class TestLocalDeformation:
    """The deformations' local checks against the whole new link validated
    by ``validate_link``."""

    def test_matches_reference(self, deformation_cases):
        assert deformation_mismatches(geometry, deformation_cases) == 0
        kinds = Counter((name, re.sub(r"[-\d]+", "N", out)
                         if isinstance(out, str) else "ok")
                        for name, _args, out in deformation_cases)
        assert len(deformation_cases) > 1500
        for name in REFERENCES:
            assert kinds[name, "ok"] > 100
        broken = {k for k in kinds if "breaks link validity" in k[1]}
        assert {k[1].split(": ", 2)[-1] for k in broken} >= {
            "collinear consecutive points (N,N,N)",
            "edges (N,N) and (N,N) intersect away from a common endpoint",
            "edges (N,N) and (N,N) overlap in a segment"}
        assert {k[0] for k in broken} == set(REFERENCES)

    @pytest.mark.parametrize("name", BROKEN_BY_REMOVAL)
    def test_broken_removal_named(self, name):
        link = PolygonalLink.from_lists(BROKEN_BY_REMOVAL[name])
        expected = outcome_of(reference_remove_vertex, link, 2)
        assert "removal breaks link validity" in expected
        assert outcome_of(deform_remove_vertex, link, 2) == expected

    def test_triangle_obstruction_matches_reference(self, deformation_cases):
        checked = 0
        for name, args, _expected in deformation_cases:
            if name != "deform_add_vertex":
                continue
            link, ci, pos, apex = args
            gl = link.component_range(ci)[0] + pos
            gm = link.successor(gl)
            if geometry.collinear3(link.vertex(gl), apex, link.vertex(gm)):
                continue
            checked += 1
            assert (triangle_obstruction(link, gl, gm, apex)
                    == reference_obstruction(link, gl, gm, apex))
        assert checked > 500

    @pytest.mark.parametrize("old, new", [
        # an edge that shares an endpoint with the new edge meets it there
        ("if (t == 0 and i1 in e2) or (t == den and j1 in e2):",
         "if False:"),
        # only the triple at l is checked after a removal
        ("_collinear_triples(new, kept, sorted((ngl, ngm)))",
         "_collinear_triples(new, kept, (ngl,))"),
        # only the triple at l is checked after an insertion
        ("sorted((gl, gm + (gm > gl)))", "(gl,)"),
    ], ids=["shared_endpoint", "removal_triple_at_m",
            "insertion_triple_at_m"])
    def test_mutant_caught(self, monkeypatch, deformation_cases, old, new):
        source = inspect.getsource(geometry)
        assert source.count(old) == 1
        mutant = types.ModuleType("polykh.geometry_mutant")
        mutant.__package__ = "polykh"
        monkeypatch.setitem(sys.modules, mutant.__name__, mutant)
        exec(compile(source.replace(old, new), mutant.__name__, "exec"),
             mutant.__dict__)
        assert deformation_mismatches(mutant, deformation_cases) > 0
