"""Shared fixtures: bundled links, standard diagrams, seeded random links."""

from fractions import Fraction as F
import random

import pytest
from hypothesis import settings, strategies as st

from polykh import (PolygonalLink, LinkFileError, validate_link, load_fixture,
                    build_good_diagram, build_cube)
from polykh import randlinks

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion, after capture ends."""
    try:
        from test_acceptance import REPORT
    except ImportError:
        return
    if REPORT:
        terminalreporter.section("acceptance criteria")
        for line in REPORT:
            terminalreporter.write_line(line)

DIR_Z = (F(0), F(0), F(1))

# the tokens of the link and diagram formats, some malformed, with free text
TOKENS = st.sampled_from(["component", "vertex", "crossing", "boundaries",
                          "#", "0", "1", "-1", "+1", "2", "3", "9", "-8/11",
                          "1/2", "3/", "1/0", "0.5", "nan", "x"]) | st.text(
                              max_size=3)
TEXTS = st.lists(st.lists(TOKENS, max_size=10).map(" ".join),
                 max_size=6).map("\n".join)


def parses_or_rejects(parse, text):
    """``parse(text)`` returns, or raises LinkFileError and nothing else."""
    try:
        parse(text)
    except LinkFileError:
        pass


@pytest.fixture(scope="session")
def trefoil_link():
    return load_fixture("trefoil9")


@pytest.fixture(scope="session")
def trefoil_diagram(trefoil_link):
    return build_good_diagram(trefoil_link, DIR_Z)


@pytest.fixture(scope="session")
def trefoil_cube(trefoil_diagram):
    return build_cube(trefoil_diagram)


@pytest.fixture(scope="session")
def whitehead_link():
    return load_fixture("whitehead12")


@pytest.fixture(scope="session")
def whitehead_diagram(whitehead_link):
    return build_good_diagram(whitehead_link, DIR_Z)


@pytest.fixture(scope="session")
def square_link():
    return load_fixture("square")


def cycle_partition(perm):
    """The cycles of ``perm``, each up to reversal: for comparing smoothings
    whose circles may be oriented independently."""
    out = set()
    for cyc in perm.cycles():
        rev = (cyc[0],) + tuple(reversed(cyc[1:]))
        out.add(min(cyc, rev))
    return frozenset(out)


def random_link(rng: random.Random) -> PolygonalLink:
    """A seeded random valid polygonal link with small integer coordinates."""
    return randlinks.random_link(rng)


def random_diagram(rng: random.Random, k_max: int = 6):
    """Random link together with a good diagram having at most k_max crossings."""
    _link, refined, direction, diagram = randlinks.random_diagram(
        rng.randrange(1 << 30), max_crossings=k_max)
    return diagram, refined, direction


def torus_table(n: int, sign: int) -> dict[tuple[int, int], int]:
    """Rational Khovanov homology of T(2, n) with n crossings of one sign.

    Khovanov, *A categorification of the Jones polynomial* (Duke 2000), §6.2,
    for positive crossings: q^(n-2) + q^n in degree 0, then
    t^(2s) q^(n+4s-2) + t^(2s+1) q^(n+4s+2) for 1 <= s <= (n-1)/2; an even n
    (two components, parallel orientation) ends with t^n q^(3n-2) + t^n q^(3n).
    Negative crossings give the mirror, dim KH^{i,j} = dim KH^{-i,-j}.
    """
    table = {(0, n - 2): 1, (0, n): 1}
    for s in range(1, (n - 1) // 2 + 1):
        table[(2 * s, n + 4 * s - 2)] = 1
        table[(2 * s + 1, n + 4 * s + 2)] = 1
    if n % 2 == 0:
        table[(n, 3 * n - 2)] = 1
        table[(n, 3 * n)] = 1
    return {(sign * i, sign * j): d for (i, j), d in table.items()}


def twist_link(n: int, sign: int) -> PolygonalLink:
    """T(2, n) as the closure of a two-strand braid with n crossings, each
    of the given sign in the projection along (0, 0, 1).

    Two zigzags run left to right and cross once per unit step in x, the
    one rising in y always on the same side.  The strand that ends at y = 0
    returns below y = -2 to (0, 0), the one ending at y = 1 returns above
    y = 3 to (0, 1): two components for even n, one for odd n.  The two
    signs are mirror images, z -> -z.
    """
    a = [(x, x % 2, x if x % 2 else -x) for x in range(n + 1)]
    b = [(x, 1 - x % 2, -x if x % 2 else x) for x in range(n + 1)]
    below = [(n + 1, -2, 1), (-1, -2, 1)]
    above = [(n + 1, 3, -1), (-1, 3, -1)]
    comps = [a + below, b + above] if n % 2 == 0 else [a + above + b + below]
    return PolygonalLink.from_lists(
        [[(x, y, -sign * z) for x, y, z in comp] for comp in comps])
