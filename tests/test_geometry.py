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
                             deform_remove_vertex, dot3, cross3, sub3)
from polykh import load_fixture, build_good_diagram

from conftest import DIR_Z, random_link

frac = st.fractions(min_value=-10, max_value=10, max_denominator=8)
pt2 = st.tuples(frac, frac)
pt3 = st.tuples(frac, frac, frac)


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


class TestSegmentIntersection3D:
    def test_crossing_in_space(self):
        hit = seg3_intersection((F(0), F(0), F(0)), (F(2), F(2), F(2)),
                                (F(0), F(2), F(1)), (F(2), F(0), F(1)))
        assert hit is not None and hit[0] == "point"
        assert hit[1] == (F(1), F(1), F(1))

    def test_skew_lines_miss(self):
        assert seg3_intersection((F(0), F(0), F(0)), (F(1), F(0), F(0)),
                                 (F(0), F(0), F(1)), (F(0), F(1), F(1))) is None


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
