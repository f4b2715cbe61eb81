"""Seeded random polygonal links for the verification suite.

Rejection sampling of small-integer closed polygons: cheap to generate,
deterministic for a fixed seed, and rich enough to exercise every branch of
the smoothing calculus once projected and refined.
"""

from __future__ import annotations

import random

from .geometry import (PolygonalLink, validate_link, find_regular_direction,
                       refine_to_good, project_link, GeometryError)
from .diagram import build_good_diagram


def random_link(rng: random.Random, max_vertices: int = 16,
                max_components: int = 2, box: int = 6) -> PolygonalLink:
    """One valid random link with at most ``max_vertices`` vertices total."""
    while True:
        r = rng.randint(1, max_components)
        comps = []
        total = 0
        for ci in range(r):
            m = rng.randint(4, min(7, max_vertices - total - 4 * (r - ci - 1)))
            total += m
            comps.append([(rng.randint(-box, box) + 2 * box * ci,
                           rng.randint(-box, box),
                           rng.randint(-box, box)) for _ in range(m)])
        link = PolygonalLink.from_lists(comps)
        if not validate_link(link):
            return link


def random_diagram(seed: int, max_crossings: int = 6,
                   min_crossings: int = 0, max_vertices: int = 16,
                   max_components: int = 2):
    """A random link together with a good diagram of at most
    ``max_crossings`` crossings; returns (link, refined link, direction,
    diagram).  Deterministic in ``seed``.

    Refinement keeps the crossing count of the raw projection and draws
    nothing from the generator, so candidates are screened on the raw count
    and only a kept one is refined.
    """
    rng = random.Random(seed)
    while True:
        link = random_link(rng, max_vertices=max_vertices,
                           max_components=max_components)
        try:
            direction = find_regular_direction(link, seed=rng.randint(0, 10 ** 6),
                                               budget=2000)
            k = len(project_link(link, direction).crossings)
            if not min_crossings <= k <= max_crossings:
                continue
            refined = refine_to_good(link, direction)
            diagram = build_good_diagram(refined, direction)
        except GeometryError:
            continue
        return link, refined, direction, diagram
