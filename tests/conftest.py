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
from polykh.exact import (_integral, add3, collinear3, cross3, orient2,
                          scale3, seg2_intersection, sub3)
from polykh.geometry import (GeometryError, DeformationError,
                             find_regular_direction, project_link,
                             refine_to_good)
from polykh.diagram import DiagramError
from polykh.moves import (MoveError, TriangleMove, _crossing_on,
                          _other_end, _partner_edge, classify_triangle_move)
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


def is_bijection(images) -> bool:
    """Whether the list ``images`` lists 1..n in some order: the reference
    for the bijection check of Permutation's cycle walk."""
    return sorted(images) == list(range(1, len(images) + 1))


def reference_cycles(images) -> list[tuple[int, ...]]:
    """The cycles of a bijection's image list, walked plainly from each
    index not yet in a cycle: min-first, sorted by minimum."""
    out, seen = [], set()
    for x in range(1, len(images) + 1):
        if x not in seen:
            cyc = [x]
            while images[cyc[-1] - 1] != x:
                cyc.append(images[cyc[-1] - 1])
            seen.update(cyc)
            out.append(tuple(cyc))
    return out


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
    """``full_smoothing`` with vertex ``word`` given ``delta`` circles more
    (fewer if negative).  With delta = +-1 each of its edges changes the
    count by 0 or 2; with delta = +-2 only its edges to the vertices with
    one circle fewer (more) break."""
    def wrapped(diagram, w, images, circles):
        vx = full_smoothing(diagram, w, images, circles)
        if w != word:
            return vx
        return replace(vx, groups=(vx.groups + vx.groups[:1] * delta
                                   if delta > 0 else vx.groups[-delta:]))
    return wrapped


def miscount_message(cube, word, delta):
    """The circle-count check's message for the first edge of ``cube`` at
    vertex ``word`` whose count no longer changes by one once that vertex
    has ``delta`` circles more."""
    for edge in cube.edges:
        if word in (edge.tail, edge.head):
            c_tail, c_head = (cube.vertices[w].c + (delta if w == word else 0)
                              for w in (edge.tail, edge.head))
            if abs(c_head - c_tail) != 1:
                return (f"edge {edge.tail}->{edge.head}: circle count "
                        f"changed by {c_head - c_tail}")
    raise AssertionError(f"no edge at {word} breaks")


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
    validates the whole new link (``reference_add_vertex``), which is then
    projected whole, and None
    means that either refused it.  The reference for the O(E) candidate
    check of ``refine_to_good``."""
    link = proj.link
    ga = target[0][0]
    ci = link.component_of(ga)
    try:
        new_link = reference_add_vertex(
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


# ---------------------------------------------------------------------------
# triangle deformations with the whole new link validated: the references
# that the local checks of ``deform_add_vertex``, ``deform_remove_vertex``
# and ``apply_move`` are checked against


def reference_obstruction(link, gl, gm, apex):
    """``triangle_obstruction`` with the link and the apex scaled to ints
    together, afresh."""
    pts, _ = _integral(link.all_vertices() + [apex])
    edges = [e for e in link.edges() if {*e} != {gl, gm}]
    return geometry._obstruction(pts, edges,
                                 (pts[gl - 1], pts[-1], pts[gm - 1]), (gl, gm))


def reference_add_vertex(link, ci, pos, point):
    """``deform_add_vertex`` by ``validate_link`` on the whole new link."""
    lo, _ = link.component_range(ci)
    gl = lo + pos
    gm = link.successor(gl)
    if collinear3(link.vertex(gl), point, link.vertex(gm)):
        raise DeformationError(
            f"apex {point} lies on the line of edge ({gl},{gm})")
    bad = reference_obstruction(link, gl, gm, point)
    if bad is not None:
        raise DeformationError(
            f"triangle ({gl},{gm},new) obstructed by edge {bad}")
    new = link.with_vertex_inserted(ci, pos, point)
    problems = validate_link(new)
    if problems:
        raise DeformationError(f"insertion breaks link validity: {problems[0]}")
    return new


def reference_remove_vertex(link, gp):
    """``deform_remove_vertex`` by ``validate_link`` on the whole new link,
    and the triangle checked against the new link."""
    ci = link.component_of(gp)
    if len(link.components[ci]) <= 3:
        raise DeformationError("cannot shrink a component below 3 vertices")
    gl, gm = link.predecessor(gp), link.successor(gp)
    new = link.with_vertex_removed(gp)
    problems = validate_link(new)
    if problems:
        raise DeformationError(f"removal breaks link validity: {problems[0]}")
    bad = reference_obstruction(new, gl - (gl > gp), gm - (gm > gp),
                                link.vertex(gp))
    if bad is not None:
        orig = tuple(x if x < gp else x + 1 for x in bad)
        raise DeformationError(
            f"triangle ({gl},{gp},{gm}) obstructed by edge {orig}")
    return new


def reference_apply_move(link, direction, p):
    """``apply_move`` with both links projected whole and the removed link
    validated whole; the classification is the package's, whose 3D check
    ``deform_remove_vertex`` is checked against its own reference."""
    diagram = build_good_diagram(link, direction)
    move = classify_triangle_move(diagram, p, link=link)
    if move.tag == "RIII":
        raise MoveError("a Reidemeister III pattern cannot be realised by a "
                        "single vertex removal; move the strands and rebuild "
                        "instead")
    link2 = reference_remove_vertex(link, p)
    try:
        diagram2 = build_good_diagram(link2, direction)
    except DiagramError as exc:
        raise MoveError(f"deformed diagram is not good: {exc}") from exc
    return move, link2, diagram2


def outcome_of(f, *args):
    """What ``f(*args)`` returns, or the type and words of the GeometryError,
    DiagramError or MoveError that it raises."""
    try:
        return f(*args)
    except (GeometryError, DiagramError, MoveError) as exc:
        return f"{type(exc).__name__}: {exc}"


def seeded_apexes(link, rng, count):
    """(ci, pos, apex) of ``count`` seeded insertions on ``link``, drawn as
    the benchmark's round trips draw them, each followed by apexes that
    line up with the edge before l or after m: a collinear new triple."""
    for _ in range(count):
        gl = rng.randrange(1, link.n + 1)
        ci = link.component_of(gl)
        pos = gl - link.component_range(ci)[0]
        gm = link.successor(gl)
        a, b = link.vertex(gl), link.vertex(gm)
        lam = F(rng.randrange(1, 8), 8)
        off = [F(rng.randrange(-4, 5), 16) for _ in range(3)]
        yield ci, pos, tuple(a[x] + lam * (b[x] - a[x]) + off[x]
                             for x in range(3))
        t = F(1, rng.choice((2, 4, 8)))
        for q, r in ((a, link.vertex(link.predecessor(gl))),
                     (b, link.vertex(link.successor(gm)))):
            yield ci, pos, add3(q, scale3(sub3(q, r), t))


# ---------------------------------------------------------------------------
# the triangle-move classifier on Fractions: the reference that the int
# classifier of ``polykh.moves`` is checked against


def point_on_seg2(x, a, b) -> bool:
    """Whether the planar point x lies on the closed segment ab."""
    if orient2(a, b, x) != 0:
        return False
    return (min(a[0], b[0]) <= x[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= x[1] <= max(a[1], b[1]))


def point_in_triangle2(x, tri) -> bool:
    """Whether the planar point x lies in the closed triangle ``tri``."""
    a, b, c = tri
    sgn = 1 if orient2(a, b, c) > 0 else -1
    return all(orient2(e1, e2, x) * sgn >= 0
               for (e1, e2) in ((a, b), (b, c), (c, a)))


def strictly_inside(x, tri) -> bool:
    a, b, c = tri
    sgn = 1 if orient2(a, b, c) > 0 else -1
    return all(orient2(e1, e2, x) * sgn > 0 for (e1, e2) in
               ((a, b), (b, c), (c, a)))


def new_edge_crossings_reference(diagram, l, p, m):
    """The edges crossing the replacement edge l-m transversely in their
    interiors, each edge met by ``seg2_intersection`` on Fractions."""
    ql, qm = diagram.vertex(l), diagram.vertex(m)
    partners = []
    for g in range(1, diagram.n + 1):
        h = diagram.successor(g)
        if g in (l, p) and h in (p, m):
            continue  # the two removed sides
        hit = seg2_intersection(ql, qm, diagram.vertex(g), diagram.vertex(h))
        if hit is None:
            continue
        kind, data = hit
        if kind == "overlap":
            raise MoveError(
                f"deformed edge {l}-{m} overlaps edge ({g},{h}); "
                "the deformed diagram is not good - refine the link first")
        t, u, _pt = data
        if g in (l, m) or h in (l, m):
            shared = ql if g == l or h == l else qm
            expected_t = 0 if shared == ql else 1
            if t == expected_t and (u == 0 or u == 1):
                continue  # touching only at the shared vertex
            raise MoveError(
                f"deformed edge {l}-{m} meets adjacent edge ({g},{h}) beyond "
                "the shared vertex; the deformed diagram is not good - "
                "refine the link first")
        if 0 < t < 1 and 0 < u < 1:
            partners.append((g, h))
            continue
        raise MoveError(
            f"deformed edge {l}-{m} touches an endpoint of edge ({g},{h}); "
            "the deformed diagram is not good - refine the link first")
    return partners


def classify_reference(diagram, p):
    """``classify_triangle_move(diagram, p)`` without a link: each planar
    test on Fractions, and C2/C3 and C4/C5 written out once per side."""
    if not 1 <= p <= diagram.n:
        raise MoveError(f"no vertex {p}")
    l = diagram.predecessor(p)
    m = diagram.successor(p)
    if l in (p, m) or diagram.successor(m) == l:
        raise MoveError("cannot shrink a component below 3 vertices")
    ql, qp, qm = diagram.vertex(l), diagram.vertex(p), diagram.vertex(m)
    if orient2(ql, qp, qm) == 0:
        raise MoveError(f"triangle ({l},{p},{m}) is degenerate")
    tri = (ql, qp, qm)
    inside = []
    for g in range(1, diagram.n + 1):
        if g in (l, p, m):
            continue
        q = diagram.vertex(g)
        if not point_in_triangle2(q, tri):
            continue
        for (e1, e2) in ((ql, qp), (qp, qm), (qm, ql)):
            if point_on_seg2(q, e1, e2):
                raise MoveError(
                    f"vertex {g} lies on the boundary of triangle "
                    f"({l},{p},{m})")
        inside.append(g)

    cr_lp = _crossing_on(diagram, l, p)
    cr_pm = _crossing_on(diagram, p, m)
    if cr_lp is not None and cr_pm is not None and len(inside) == 2:
        e1 = _partner_edge(cr_lp, l, p)
        e2 = _partner_edge(cr_pm, p, m)
        for cr in diagram.crossings:
            if cr in (cr_lp, cr_pm):
                continue
            if not strictly_inside(cr.point, tri):
                continue
            f1, f2 = (cr.i, cr.j), (cr.v, cr.w)
            for g1, g2 in ((f1, f2), (f2, f1)):
                s1 = set(g1) & set(e1)
                s2 = set(g2) & set(e2)
                if len(s1) == 1 and len(s2) == 1 and s1 | s2 == set(inside):
                    return TriangleMove("RIII", l, p, m,
                                        a=min(s1), b=min(s2))

    new_partners = new_edge_crossings_reference(diagram, l, p, m)
    side_partners = []
    if cr_lp is not None:
        side_partners.append(_partner_edge(cr_lp, l, p))
    if cr_pm is not None:
        side_partners.append(_partner_edge(cr_pm, p, m))
    if len(new_partners) > 1 and not (
            cr_lp and cr_pm and set(new_partners) == set(side_partners)):
        raise MoveError(
            f"deformed edge {l}-{m} would carry {len(new_partners)} "
            "crossings; the deformed diagram is not good - refine the link "
            "first")
    for e in new_partners:
        kept = sum(1 for cr in diagram.crossings
                   if e in ((cr.i, cr.j), (cr.v, cr.w))
                   and cr not in (cr_lp, cr_pm))
        if kept:
            raise MoveError(
                f"edge {e} would carry two crossings after the move; the "
                "deformed diagram is not good - refine the link first")

    if not inside:
        if cr_lp is None and cr_pm is None and not new_partners:
            return TriangleMove("C1", l, p, m)
        if cr_lp and not cr_pm and not new_partners:
            e = _partner_edge(cr_lp, l, p)
            if m not in e:
                raise MoveError(
                    f"crossing on side ({l},{p}) with non-adjacent edge {e} "
                    "does not match any supported case")
            return TriangleMove("C2", l, p, m, a=_other_end(e, m))
        if cr_pm and not cr_lp and not new_partners:
            e = _partner_edge(cr_pm, p, m)
            if l not in e:
                raise MoveError(
                    f"crossing on side ({p},{m}) with non-adjacent edge {e} "
                    "does not match any supported case")
            return TriangleMove("C3", l, p, m, a=_other_end(e, l))
        if cr_lp and not cr_pm and len(new_partners) == 1:
            e = _partner_edge(cr_lp, l, p)
            if new_partners[0] == e:
                return TriangleMove("C4", l, p, m, a=e[0], b=e[1])
        if cr_pm and not cr_lp and len(new_partners) == 1:
            e = _partner_edge(cr_pm, p, m)
            if new_partners[0] == e:
                return TriangleMove("C5", l, p, m, a=e[0], b=e[1])
        raise MoveError(
            f"crossing pattern at triangle ({l},{p},{m}) does not match any "
            "supported case")

    if len(inside) == 1:
        a = inside[0]
        n_side = int(cr_lp is not None) + int(cr_pm is not None)
        if n_side == 1 and not new_partners:
            e = _partner_edge(cr_lp or cr_pm, *((l, p) if cr_lp else (p, m)))
            if a in e:
                return TriangleMove("CA", l, p, m, a=a, b=_other_end(e, a))
        if n_side == 1 and len(new_partners) == 1:
            e = _partner_edge(cr_lp or cr_pm, *((l, p) if cr_lp else (p, m)))
            e2 = new_partners[0]
            if a in e and a in e2:
                return TriangleMove("CB", l, p, m, a=a,
                                    b=_other_end(e, a), c=_other_end(e2, a))
        if n_side == 2 and not new_partners:
            e1 = _partner_edge(cr_lp, l, p)
            e2 = _partner_edge(cr_pm, p, m)
            shared = set(e1) & set(e2)
            if shared == {a}:
                return TriangleMove("CC", l, p, m, a=a,
                                    b=_other_end(e1, a), c=_other_end(e2, a))
        raise MoveError(
            f"triangle ({l},{p},{m}) with inner vertex {a} does not match "
            "any supported composite case")

    raise MoveError(
        f"triangle ({l},{p},{m}) contains {len(inside)} other vertices; "
        "unsupported configuration")


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
