"""Shared fixtures and references: bundled links, standard diagrams, seeded
random links, and the permutation algebra that the package's image-list
formulas are checked against."""

from dataclasses import replace
from fractions import Fraction as F
import random

import pytest
from hypothesis import settings, strategies as st

from polykh import (PolygonalLink, LinkFileError, validate_link, load_fixture,
                    build_good_diagram, build_cube)
from polykh import randlinks
from polykh import geometry
from polykh.exact import add3, cross3, scale3, sub3
from polykh.geometry import (GeometryError, DeformationError,
                             find_regular_direction, project_link,
                             refine_to_good)
from polykh.perm import DihedralFactor, PermError, Permutation

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

# tokens of the link format and of other record types, some malformed,
# with free text
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


# ---------------------------------------------------------------------------
# the permutation algebra: the reference that the cube's and the moves'
# image-list formulas transcribe.  compose(a, b) applies b first and then a.


def identity(n: int) -> Permutation:
    return Permutation(range(1, n + 1))


def transposition(n: int, a: int, b: int) -> Permutation:
    img = list(range(1, n + 1))
    img[a - 1], img[b - 1] = b, a
    return Permutation(img)


def from_cycles(n: int, cycles) -> Permutation:
    img = list(range(1, n + 1))
    seen = set()
    for cyc in cycles:
        for x in cyc:
            if x in seen:
                raise PermError(f"index {x} appears in two cycles")
            seen.add(x)
        for a, b in zip(cyc, tuple(cyc[1:]) + (cyc[0],)):
            img[a - 1] = b
    return Permutation(img)


def compose(a: Permutation, *rest: Permutation) -> Permutation:
    """Product applied right to left: compose(a, b)(x) = a(b(x))."""
    out = a
    for b in rest:
        if out.n != b.n:
            raise PermError(f"size mismatch: {out.n} vs {b.n}")
        out = Permutation([out.images[y - 1] for y in b.images])
    return out


def inverse(a: Permutation) -> Permutation:
    inv = [0] * a.n
    for x, y in enumerate(a.images, start=1):
        inv[y - 1] = x
    return Permutation(inv)


def conjugate(a: Permutation, g: Permutation) -> Permutation:
    """g a g^-1 -- relabels a's cycle notation through g."""
    return compose(g, a, inverse(g))


def parse_cycles(text: str, n: int) -> Permutation:
    """Parse cycle-notation text like ``(1,9,3)(4,11,7)``; fixed points
    implicit."""
    text = text.strip()
    if text in ("()", "", "id"):
        return identity(n)
    if not (text.startswith("(") and text.endswith(")")):
        raise PermError(f"bad cycle notation: {text!r}")
    cycles = []
    for chunk in text[1:-1].split(")("):
        try:
            cyc = [int(t) for t in chunk.replace(" ", "").split(",") if t]
        except ValueError as exc:
            raise PermError(f"bad cycle chunk {chunk!r}") from exc
        if any(not (1 <= x <= n) for x in cyc):
            raise PermError(f"cycle entry out of range in {chunk!r}")
        cycles.append(cyc)
    return from_cycles(n, cycles)


def cycle_containing(perm: Permutation, x: int) -> tuple[int, ...]:
    """The cycle of ``perm`` through x, starting at x: the reference for the
    cube's walks of one cycle on image lists."""
    cyc = [x]
    y = perm(x)
    while y != x:
        cyc.append(y)
        y = perm(y)
    return tuple(cyc)


def cycle_partition(perm):
    """The cycles of ``perm``, each up to reversal: for comparing smoothings
    whose circles may be oriented independently."""
    out = set()
    for cyc in perm.cycles():
        rev = (cyc[0],) + tuple(reversed(cyc[1:]))
        out.add(min(cyc, rev))
    return frozenset(out)


def reflection_xi(factor: DihedralFactor, a: int, b: int,
                  n: int) -> Permutation:
    """The reflection of the dihedral group on ``factor.cycle`` exchanging a
    and b: the reference that the cube's list formulas transcribe.

    Writing the cycle as c_0..c_{d-1}, the reflection r_s(c_x) =
    c_{(s-x) mod d} with s = pos(a) + pos(b) is the unique element of order
    <= 2 swapping a and b.  Indices outside the factor are fixed.
    """
    cyc = factor.cycle
    if a == b:
        raise PermError("reflection needs two distinct indices")
    try:
        pa, pb = cyc.index(a), cyc.index(b)
    except ValueError as exc:
        raise PermError(f"{a},{b} not both members of cycle {cyc}") from exc
    d = len(cyc)
    s = pa + pb
    img = list(range(1, n + 1))
    for x in range(d):
        img[cyc[x] - 1] = cyc[(s - x) % d]
    return Permutation(img)


def reflection_in(perm: Permutation, a: int, b: int) -> Permutation:
    """Reflection exchanging a and b inside the cycle of ``perm`` containing
    both."""
    cyc = cycle_containing(perm, a)
    if b not in cyc:
        raise PermError(f"{a} and {b} lie in different cycles of "
                        f"{perm.cycle_str()}")
    return reflection_xi(DihedralFactor(cyc), a, b, perm.n)


def reference_edges(vertices):
    """The cube edges as tuples, each head word built anew from its tail:
    the assembly before bit masks."""
    edges = []
    k = len(next(iter(vertices))) if vertices else 0
    circles = {word: vx.c for word, vx in vertices.items()}
    for pos in range(k):
        for word, c_tail in circles.items():
            if word[pos] != 0:
                continue
            letters = list(word)
            letters[pos] = 1
            head = tuple(letters)
            c_head = circles[head]
            assert abs(c_tail - c_head) == 1
            letters[pos] = "*"
            sign = -1 if word[:pos].count(1) % 2 else 1
            kind = "merge" if c_head == c_tail - 1 else "split"
            edges.append((tuple(letters), word, head, kind, sign))
    return edges


def miscounted(full_smoothing, word, delta):
    """``full_smoothing`` with vertex ``word`` given ``delta`` (+1 or -1)
    circles more, so that each of its edges changes the count by 0 or 2."""
    def wrapped(diagram, w, images, circles):
        vx = full_smoothing(diagram, w, images, circles)
        if w != word:
            return vx
        return replace(vx, groups=(vx.groups + vx.groups[:1] if delta > 0
                                   else vx.groups[1:]))
    return wrapped


def miscount_message(cube, word, delta):
    """The circle-count check's message for the first edge of ``cube`` at
    vertex ``word``, once that vertex has ``delta`` circles more."""
    edge = next(e for e in cube.edges if word in (e.tail, e.head))
    c_tail, c_head = (cube.vertices[w].c + (delta if w == word else 0)
                      for w in (edge.tail, edge.head))
    return (f"edge {edge.tail}->{edge.head}: circle count changed by "
            f"{c_head - c_tail}")


def random_link(rng: random.Random) -> PolygonalLink:
    """A seeded random valid polygonal link with small integer coordinates."""
    return randlinks.random_link(rng)


def random_diagram(rng: random.Random, k_max: int = 6):
    """A random link with a good diagram of at most ``k_max`` crossings;
    returns (diagram, refined link, direction).  Deterministic in ``rng``."""
    return random_refinement(rng, k_max)[:3]


def random_refinement(rng: random.Random, k_max: int = 6):
    """``random_diagram`` and the link before refinement: (diagram, refined
    link, direction, link).

    Refinement keeps the crossing count of the raw projection and draws
    nothing from the generator, so candidates are screened on the raw count
    and only a kept one is refined.
    """
    seeded = random.Random(rng.randrange(1 << 30))
    while True:
        link = randlinks.random_link(seeded)
        try:
            direction = find_regular_direction(
                link, seed=seeded.randint(0, 10 ** 6), budget=2000)
            if len(project_link(link, direction).crossings) > k_max:
                continue
            refined = refine_to_good(link, direction)
            return (build_good_diagram(refined, direction), refined,
                    direction, link)
        except GeometryError:
            continue


def reference_insertion(proj, target, cand):
    """The projection of ``proj.link`` with ``cand`` inserted on the target
    edge, or None: ``deform_add_vertex`` checks the triangle and then
    validates the whole new link, which is then projected whole, and None
    means that either refused it.  The reference for the O(E) candidate
    check of ``refine_to_good``."""
    link = proj.link
    ga = target[0][0]
    ci = link.component_of(ga)
    try:
        new_link = geometry.deform_add_vertex(
            link, ci, ga - link.component_range(ci)[0], cand)
    except DeformationError:
        return None
    witness, new_proj = geometry._project(new_link, proj.direction)
    return new_proj if witness is None else None


def refinement_candidates(proj, target):
    """The candidate vertices that refinement tries on the target edge, in
    order: off the base point along edge x direction, in halving steps."""
    (ga, gb), t = target
    pa, pb = proj.link.vertex(ga), proj.link.vertex(gb)
    base = add3(pa, scale3(sub3(pb, pa), t))
    push = cross3(sub3(pb, pa), proj.direction)
    push = scale3(push, F(1, max(abs(c) for c in push)))
    scale = F(1, 4)
    for _ in range(80):
        for sign in (1, -1):
            yield geometry._capped(add3(base, scale3(push, sign * scale)))
        scale /= 2


def reference_step(proj, target, old_badness):
    """The projection after one refinement insertion: the first candidate
    that ``reference_insertion`` takes, with as many crossings and a lower
    badness."""
    for cand in refinement_candidates(proj, target):
        new = reference_insertion(proj, target, cand)
        if (new is not None and len(new.crossings) == len(proj.crossings)
                and geometry._badness(new) < old_badness):
            return new
    raise GeometryError(f"could not place refinement vertex on {target[0]}")


def refine_reference(link, direction):
    """The projection that ``refine_to_good`` ends with, each insertion made
    by ``reference_step``."""
    proj = project_link(link, direction)
    while bad := geometry._badness(proj):
        proj = reference_step(proj, geometry._pick_refinement_target(proj),
                              bad)
    return proj


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
