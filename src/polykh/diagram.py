"""Combinatorial good diagrams of polygonal links.

A good diagram records the planar images of the link vertices together with
crossing data: for the m-th crossing the overcrossing edge q_i q_j passes
above the undercrossing edge q_v q_w, with j the component-successor of i
and w of v, and each edge meets at most one crossing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .geometry import (ComponentNeighbours, PolygonalLink, Projection, Vec2,
                       Vec3, GeometryError, project_link, is_good_projection,
                       refine_to_good, find_regular_direction, sub2, cross2)
from .perm import Permutation


class DiagramError(ValueError):
    pass


@dataclass(frozen=True)
class CrossingRecord:
    """One transverse double point; indices are global vertex indices."""

    index: int      # position in the overcrossing walk, 1-based
    i: int          # overcrossing edge start
    j: int          # overcrossing edge end (= successor of i)
    v: int          # undercrossing edge start
    w: int          # undercrossing edge end (= successor of v)
    sign: int       # +1 or -1
    point: Vec2

    @property
    def quadruple(self) -> tuple[int, int, int, int]:
        return (self.i, self.j, self.v, self.w)


@dataclass(frozen=True)
class GoodDiagram(ComponentNeighbours):
    vertices: tuple[Vec2, ...]          # image of global vertex i at index i-1
    boundaries: tuple[int, ...]         # n_1 < ... < n_r
    crossings: tuple[CrossingRecord, ...]

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def k(self) -> int:
        return len(self.crossings)

    @property
    def k_plus(self) -> int:
        return sum(1 for c in self.crossings if c.sign > 0)

    @property
    def k_minus(self) -> int:
        return sum(1 for c in self.crossings if c.sign < 0)

    def vertex(self, gi: int) -> Vec2:
        return self.vertices[gi - 1]

    def component_permutation(self) -> Permutation:
        """sigma = sigma_1 ... sigma_r, the component-successor permutation."""
        return Permutation(self._neighbours[0])


def crossing_sign(qi: Vec2, qj: Vec2, qv: Vec2, qw: Vec2) -> int:
    """Sign of the crossing with overcrossing edge qi->qj above qv->qw.

    This is the sign of the z-component of (qj-qi) x (qw-qv) with the plane
    oriented by the standard normal (0,0,1).
    """
    c = cross2(sub2(qj, qi), sub2(qw, qv))
    if c == 0:
        raise DiagramError("degenerate crossing: parallel edge images")
    return 1 if c > 0 else -1


def enumerate_crossings(boundaries, raw) -> list:
    """Order raw crossings by the walk along their overcrossing edges.

    The walk visits global indices 1..n in order (components consecutively,
    each starting at its lowest index); a crossing gets the smallest unused
    number when the walk traverses its overcrossing edge.  The resulting
    i-sequence is nondecreasing.
    """
    by_start = {}
    for rc in raw:
        if rc.over_edge[0] in by_start:
            raise DiagramError(f"edge {rc.over_edge} carries two crossings")
        by_start[rc.over_edge[0]] = rc
    n = boundaries[-1]
    ordered = [by_start[gi] for gi in range(1, n + 1) if gi in by_start]
    if len(ordered) != len(raw):
        raise DiagramError("unnumbered crossing after full walk")
    return ordered


def build_good_diagram(link: PolygonalLink, direction: Vec3) -> GoodDiagram:
    """Project along a regular direction and extract ordered, signed crossings.

    The projection must already be good; raises otherwise, naming an edge
    that carries two crossings (refine the link first).
    """
    proj = project_link(link, direction)
    if not is_good_projection(proj):
        counts: dict = {}
        for rc in proj.crossings:
            for e in (rc.over_edge, rc.under_edge):
                counts[e] = counts.get(e, 0) + 1
        bad = sorted(e for e, c in counts.items() if c > 1)
        raise DiagramError(
            f"projection not good; edge(s) {bad or '(adjacent pair)'} carry "
            f"multiple crossings — refine the link first")
    return diagram_from_projection(proj)


def diagram_from_projection(proj: Projection) -> GoodDiagram:
    link = proj.link
    ordered = enumerate_crossings(link.boundaries, proj.crossings)
    records = []
    for m, rc in enumerate(ordered, start=1):
        i, j = rc.over_edge
        v, w = rc.under_edge
        sign = crossing_sign(proj.point2d(i), proj.point2d(j),
                             proj.point2d(v), proj.point2d(w))
        records.append(CrossingRecord(m, i, j, v, w, sign, rc.point))
    return GoodDiagram(proj.points2d, link.boundaries, tuple(records))


def good_diagram_auto(link: PolygonalLink, direction: Optional[Vec3] = None,
                      seed: int = 0) -> tuple[GoodDiagram, PolygonalLink, Vec3]:
    """Find a regular direction if needed, refine until good, build.

    Returns (diagram, possibly-refined link, direction used).
    """
    if direction is None:
        direction = find_regular_direction(link, seed=seed)
    refined = refine_to_good(link, direction)
    return build_good_diagram(refined, direction), refined, direction
