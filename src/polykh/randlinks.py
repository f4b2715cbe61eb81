"""Seeded random polygonal links.

Rejection sampling of small-integer closed polygons: cheap to generate,
deterministic for a fixed seed, and rich enough to exercise every branch of
the smoothing calculus once projected and refined.
"""

from __future__ import annotations

import random

from .geometry import PolygonalLink, validate_link


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
