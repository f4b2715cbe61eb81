"""Seeded random polygonal links.

Rejection sampling of small-integer closed polygons: cheap to generate,
deterministic for a fixed seed, and rich enough to exercise every branch of
the smoothing calculus once projected and refined.
"""

from __future__ import annotations

import random

from .geometry import PolygonalLink, validate_link


# at most this many vertices and components, each component's coordinates
# within BOX of its centre, the centres 2 * BOX apart along x
MAX_VERTICES, MAX_COMPONENTS, BOX = 16, 2, 6


def random_link(rng: random.Random) -> PolygonalLink:
    """One valid random link with at most MAX_VERTICES vertices total."""
    while True:
        r = rng.randint(1, MAX_COMPONENTS)
        comps = []
        total = 0
        for ci in range(r):
            m = rng.randint(4, min(7, MAX_VERTICES - total - 4 * (r - ci - 1)))
            total += m
            comps.append([(rng.randint(-BOX, BOX) + 2 * BOX * ci,
                           rng.randint(-BOX, BOX),
                           rng.randint(-BOX, BOX)) for _ in range(m)])
        link = PolygonalLink.from_lists(comps)
        if not validate_link(link):
            return link
