"""Seeded inputs of the three workloads.

Everything here is input generation and counts as set-up: it runs before
timing starts, and the same ``--seed`` always gives the same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from polykh import (PolygonalLink, load_fixture, find_regular_direction,
                    refine_to_good, build_good_diagram, validate_link)
from polykh.geometry import GeometryError, project_link
from polykh.randlinks import random_link

DIR_Z = (Fraction(0), Fraction(0), Fraction(1))

# corpus-refine: a link is named by one generator seed g.  It is
# randlinks.random_link(Random(g)), projected along the regular directions
# found with seeds g and g + 1.  Its cell is the pair of raw crossing counts
# of those two projections, before refinement.
CELLS = [(a, b) for a in (2, 3, 4) for b in (2, 3, 4)]
HOMOLOGY_CAP = 3          # homology only for diagrams with k <= 3

# Eight reference links per cell, the same for every --seed, found by
# select_corpus(random.Random(0), CELLS, 8).  They keep the seed-to-seed
# spread of the corpus small.  SEEDED_LINKS more are drawn from --seed, to
# test every claim on links not seen while it was written; they come from
# the cheaper cells, so that they add little spread.
SEEDED_CELLS = [(a, b) for a in (2, 3) for b in (2, 3)]
SEEDED_LINKS = 3
# The seed's candidates are a fixed number, so that set-up does the same work
# for every seed; about one seed in eight finds fewer than SEEDED_LINKS among
# them, and the rest come from RESERVE_SEEDS, links of SEEDED_CELLS found by
# select_corpus(random.Random(1), SEEDED_CELLS[:3], 1).
SEEDED_CANDIDATES = 40
RESERVE_SEEDS = (2095328386, 357487890, 1363349907)
CORE_SEEDS = (
    1654615998, 1112038970, 316721330, 1396742090, 952210990, 1043830061,
    317814271, 695587449, 56709708, 1337650368, 1431978117, 1577118317,
    1652754537, 966757007, 1300537029, 435855470, 1739178872, 1250224899,
    892683641, 1299960583, 1120627997, 866243010, 481718119, 2116215223,
    2046968324, 1399918423, 1725790100, 1202516726, 1165540019, 1816934709,
    510715801, 939623321, 817670926, 498414388, 1899724293, 2057660952,
    498250834, 118622481, 1290415600, 1668890677, 400599612, 2006313350,
    1533954791, 274389611, 144388256, 1595931004, 670689064, 1802964465,
    820626892, 628604922, 1828018965, 10125659, 466654280, 1259554806,
    1321829887, 1016434899, 468399889, 1117263813, 346703132, 494390848,
    1709197715, 1918641781, 363163948, 1723211911, 1294704107, 559309739,
    2115938757, 262357606, 873659410, 419980565, 1599657397, 1585942618,
)


def twist_link(n: int, shift=(0, 0, 0)) -> PolygonalLink:
    """The n-crossing member (n even) of the family bundled as ``twist12``.

    Two zigzags cross once per unit step in x, alternately over and under,
    and close up around y = -2 and y = 3: the (2, n) torus link.
    """
    if n % 2:
        raise ValueError("the twist family has even n")
    a = [(x, x % 2, x if x % 2 else -x) for x in range(n + 1)]
    a += [(n + 1, -2, 1), (-1, -2, 1)]
    b = [(x, 1 - x % 2, -x if x % 2 else x) for x in range(n + 1)]
    b += [(n + 1, 3, -1), (-1, 3, -1)]
    dx, dy, dz = shift
    return PolygonalLink.from_lists(
        [[(x + dx, y + dy, z + dz) for x, y, z in comp] for comp in (a, b)])


def mirror(link: PolygonalLink) -> PolygonalLink:
    """The reflection z -> -z."""
    return PolygonalLink(tuple(tuple((p[0], p[1], -p[2]) for p in comp)
                               for comp in link.components))


def corpus_link(g: int) -> PolygonalLink:
    return random_link(random.Random(g))


def select_corpus(rng: random.Random, cells, per_cell: int) -> list[int]:
    """Generator seeds, ``per_cell`` in each of ``cells``, in cell order."""
    found: dict[tuple, list[int]] = {c: [] for c in cells}
    while any(len(v) < per_cell for v in found.values()):
        g = rng.randrange(1 << 31)
        cell = corpus_cell(g)
        if cell in found and len(found[cell]) < per_cell:
            found[cell].append(g)
    return [g for c in cells for g in found[c]]


def seeded_corpus(rng: random.Random) -> list[int]:
    """The first SEEDED_LINKS of SEEDED_CANDIDATES generator seeds drawn from
    ``rng`` that fall in SEEDED_CELLS, filled up from RESERVE_SEEDS.

    Searching until SEEDED_LINKS are found would make set-up time depend on
    the seed; screening a fixed number of candidates keeps it steady.
    """
    found = [g for g in (rng.randrange(1 << 31)
                         for _ in range(SEEDED_CANDIDATES))
             if corpus_cell(g) in SEEDED_CELLS]
    return (found + list(RESERVE_SEEDS))[:SEEDED_LINKS]


def corpus_cell(g: int):
    """(k1, k2) of generator seed g, or None if it can be in no cell."""
    link = corpus_link(g)
    d1 = find_regular_direction(link, seed=g)
    k1 = len(project_link(link, d1).crossings)
    if not any(c[0] == k1 for c in CELLS):
        return None
    d2 = find_regular_direction(link, seed=g + 1)
    if d2 == d1:
        return None
    return (k1, len(project_link(link, d2).crossings))


def random_good_link(rng: random.Random, k: int):
    """A random link, refined to be good along a regular direction, whose
    diagram has k crossings: (refined link, direction).

    Refinement keeps the crossing count, so candidates are screened on the
    raw projection and only the chosen one is refined.
    """
    while True:
        link = random_link(rng)
        direction = find_regular_direction(link, seed=rng.randrange(1 << 20))
        if len(project_link(link, direction).crossings) == k:
            try:
                return refine_to_good(link, direction), direction
            except GeometryError:
                continue


# cube-moves: per diagram, seeded resolution orders and move round trips;
# the first round trip of each pair inserts on an edge without a crossing
RANDOM_DIAGRAMS = 3
ORDERS_PER_DIAGRAM = 3
MOVES_PER_DIAGRAM = 4


@dataclass
class MovesItem:
    name: str
    link: PolygonalLink
    direction: tuple
    diagram: object
    orders: list
    move_seeds: list


def kh_torus_inputs(seed: int):
    """T(2,10) as a twist link, translated by a seeded integer vector."""
    rng = random.Random(seed)
    shift = tuple(rng.randint(-50, 50) for _ in range(3))
    link = twist_link(10, shift)
    if validate_link(link):
        raise ValueError("twist link is not a valid polygonal link")
    return [("twist10", link, 10)]


def corpus_inputs(seed: int):
    seeds = list(CORE_SEEDS)
    seeds += seeded_corpus(random.Random(seed))
    return [(g, corpus_link(g)) for g in seeds]


def cube_moves_inputs(seed: int):
    rng = random.Random(seed)
    named = [("twist8", twist_link(8), DIR_Z),
             ("twist10", twist_link(10), DIR_Z),
             ("whitehead12", load_fixture("whitehead12"), DIR_Z),
             ("kink5", load_fixture("kink5"), DIR_Z)]
    for r in range(RANDOM_DIAGRAMS):
        named.append((f"random{r}",) + random_good_link(rng, 6))
    items = []
    for name, link, direction in named:
        diagram = build_good_diagram(link, direction)
        orders = []
        for _ in range(ORDERS_PER_DIAGRAM):
            order = list(range(1, diagram.k + 1))
            rng.shuffle(order)
            orders.append(tuple(order))
        items.append(MovesItem(name, link, direction, diagram, orders,
                               [rng.randrange(1 << 30)
                                for _ in range(MOVES_PER_DIAGRAM)]))
    return items


if __name__ == "__main__":
    print(select_corpus(random.Random(0), CELLS, 8))
