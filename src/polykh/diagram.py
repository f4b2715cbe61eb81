"""Combinatorial good diagrams of polygonal links.

A good diagram records the planar images of the link vertices together with
crossing data: for the m-th crossing the overcrossing edge q_i q_j passes
above the undercrossing edge q_v q_w, with j the component-successor of i
and w of v, and each edge meets at most one crossing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .exact import Vec2, Vec3, cross2, sub2
from .geometry import (ComponentNeighbours, PolygonalLink, Projection,
                       project_link, _good_projection, find_regular_direction)
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


def build_good_diagram(link: PolygonalLink, direction: Vec3) -> GoodDiagram:
    """Project along a regular direction and extract ordered, signed crossings.

    The projection must already be good; raises otherwise, naming the edges
    that carry two crossings or more (refine the link first).
    """
    return diagram_from_projection(project_link(link, direction))


def diagram_from_projection(proj: Projection) -> GoodDiagram:
    """The diagram of the regular projection ``proj``; raises, naming the
    edges that carry two crossings or more, if it is not good.  A walk
    along global indices 1..n numbers each crossing when it traverses the
    crossing's over edge, which carries no other crossing, so the
    i-sequence increases.  The signs are the projection's."""
    counts = Counter(e for rc in proj.crossings
                     for e in (rc.over_edge, rc.under_edge))
    bad = sorted(e for e, c in counts.items() if c > 1)
    if bad:
        raise DiagramError(
            f"projection not good; edge(s) {bad} carry multiple "
            "crossings — refine the link first")
    records = [CrossingRecord(m, *rc.over_edge, *rc.under_edge, rc.sign,
                              rc.point)
               for m, rc in enumerate(sorted(
                   proj.crossings, key=lambda rc: rc.over_edge[0]), start=1)]
    return GoodDiagram(proj.points2d, proj.link.boundaries, tuple(records))


def good_diagram_auto(link: PolygonalLink, direction: Optional[Vec3] = None,
                      seed: int = 0) -> tuple[GoodDiagram, PolygonalLink, Vec3]:
    """Find a regular direction if needed, refine until good, build.

    Returns (diagram, possibly-refined link, direction used).
    """
    if direction is None:
        direction = find_regular_direction(link, seed=seed)
    proj = _good_projection(link, direction)
    return diagram_from_projection(proj), proj.link, direction
