"""Output checks computed apart from polykh.

Nothing here calls into the library's smoothing formulas, trace oracle,
chain complex or rank code: each check recomputes its expectation from a
closed form, from the diagram's planar data, or from a property every link
invariant must have.  A failed check raises ``CheckFailed``.
"""

from __future__ import annotations


class CheckFailed(AssertionError):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# Khovanov's closed form for the (2, n) torus links


def torus_2n_table(n: int) -> dict[tuple[int, int], int]:
    """Rational Khovanov homology of the positive (2, n) torus link.

    Khovanov, *A categorification of the Jones polynomial* (Duke 2000), §6.2:
    q^(n-2) + q^n in degree 0, then t^(2s) q^(n+4s-2) + t^(2s+1) q^(n+4s+2)
    for each s below n/2; an even n (two components, parallel orientation)
    ends with t^n q^(3n-2) + t^n q^(3n).
    """
    if n < 1:
        raise ValueError("n must be positive")
    table = {(0, n - 2): 1, (0, n): 1}
    for s in range(1, (n - 1) // 2 + 1):
        table[(2 * s, n + 4 * s - 2)] = 1
        table[(2 * s + 1, n + 4 * s + 2)] = 1
    if n % 2 == 0:
        table[(n, 3 * n - 2)] = 1
        table[(n, 3 * n)] = 1
    return table


def mirror_table(table) -> dict[tuple[int, int], int]:
    """dim KH^{i,j}(mL) = dim KH^{-i,-j}(L)."""
    return {(-i, -j): d for (i, j), d in table.items()}


def euler_coeffs(table) -> dict[int, int]:
    """q-coefficients of sum_{i,j} (-1)^i dim KH^{i,j} q^j, zeros dropped."""
    out: dict[int, int] = {}
    for (i, j), d in table.items():
        out[j] = out.get(j, 0) + (-1) ** i * d
    return {j: c for j, c in out.items() if c}


def check_torus(diagram, table, j_hat_coeffs, n: int) -> None:
    """Homology and Jones of a (2, n) twist diagram against the closed form."""
    signs = {cr.sign for cr in diagram.crossings}
    require(diagram.k == n and len(signs) == 1,
            f"twist diagram has k={diagram.k}, signs {sorted(signs)}; "
            f"expected {n} crossings of one sign")
    expected = torus_2n_table(n)
    if signs == {-1}:
        expected = mirror_table(expected)
    require(table == expected,
            f"homology {sorted(table.items())} differs from the closed form "
            f"{sorted(expected.items())}")
    require(j_hat_coeffs == euler_coeffs(expected),
            "state-sum Jones differs from the Euler characteristic of the "
            "closed form")


def check_euler(table, j_hat_coeffs) -> None:
    require(euler_coeffs(table) == j_hat_coeffs,
            "Euler characteristic of the homology differs from the state-sum "
            "Jones polynomial")


def check_mirror(table, mirror, j_hat_coeffs, mirror_j_coeffs) -> None:
    """Mirror z -> -z: homology reflected through the origin, Jones q -> 1/q.

    ``table``/``mirror`` may be None when homology was not computed.
    """
    if table is not None:
        require(mirror == mirror_table(table),
                "homology of the mirror is not the reflected table")
    require(mirror_j_coeffs == {-e: c for e, c in j_hat_coeffs.items()},
            "Jones polynomial of the mirror is not J(1/q)")


# ---------------------------------------------------------------------------
# planar data of a good diagram


def _successors(boundaries) -> list[int]:
    """succ[g] for global vertex g (index 0 unused)."""
    succ = [0]
    lo = 0
    for hi in boundaries:
        succ.extend(range(lo + 2, hi + 1))
        succ.append(lo + 1)
        lo = hi
    return succ


def _orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def planar_crossings(vertices, boundaries) -> list[tuple[tuple, tuple]]:
    """Transverse crossings of the closed polygon images, by brute force."""
    succ = _successors(boundaries)
    edges = [(g, succ[g]) for g in range(1, len(succ))]
    out = []
    for x, (a, b) in enumerate(edges):
        pa, pb = vertices[a - 1], vertices[b - 1]
        for c, d in edges[x + 1:]:
            if {a, b} & {c, d}:
                continue
            pc, pd = vertices[c - 1], vertices[d - 1]
            if (_orient(pa, pb, pc) * _orient(pa, pb, pd) < 0
                    and _orient(pc, pd, pa) * _orient(pc, pd, pb) < 0):
                out.append(((a, b), (c, d)))
    return out


def check_good_diagram(diagram) -> None:
    """At most one crossing per edge image, counted here from the plane."""
    found = planar_crossings(diagram.vertices, diagram.boundaries)
    per_edge: dict[tuple, int] = {}
    for e1, e2 in found:
        for e in (e1, e2):
            per_edge[e] = per_edge.get(e, 0) + 1
    require(all(c <= 1 for c in per_edge.values()),
            f"edges with two crossings: "
            f"{sorted(e for e, c in per_edge.items() if c > 1)}")
    require(len(found) == diagram.k,
            f"{len(found)} planar crossings but {diagram.k} crossing records")
    pairs = {frozenset(p) for p in found}
    for cr in diagram.crossings:
        require(frozenset(((cr.i, cr.j), (cr.v, cr.w))) in pairs,
                f"crossing record {cr.quadruple} is not a planar crossing")


# ---------------------------------------------------------------------------
# smoothings by union-find


def smoothing_arcs(diagram, word) -> list[tuple[int, int]]:
    """Arcs of the full smoothing named by ``word``.

    Every edge without a crossing stays; at crossing l with over edge i->j
    and under edge v->w, pairing i-w and v-j is the 0-smoothing of a
    positive crossing and the 1-smoothing of a negative one.
    """
    succ = _successors(diagram.boundaries)
    cut = set()
    arcs = []
    for cr, letter in zip(diagram.crossings, word):
        cut.add((cr.i, cr.j))
        cut.add((cr.v, cr.w))
        if (letter == 0) == (cr.sign == 1):
            arcs += [(cr.i, cr.w), (cr.v, cr.j)]
        else:
            arcs += [(cr.i, cr.v), (cr.j, cr.w)]
    arcs += [(g, succ[g]) for g in range(1, len(succ))
             if (g, succ[g]) not in cut]
    return arcs


def circles_by_union_find(n: int, arcs) -> set[frozenset]:
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in arcs:
        parent[find(a)] = find(b)
    groups: dict[int, set] = {}
    for x in range(1, n + 1):
        groups.setdefault(find(x), set()).add(x)
    return {frozenset(g) for g in groups.values()}


def check_cube_circles(cube) -> None:
    """Every vertex's circles match a union-find over its smoothing's arcs,
    and its successor permutation steps only along those arcs."""
    diagram = cube.diagram
    require(len(cube.vertices) == 2 ** diagram.k,
            f"{len(cube.vertices)} cube vertices for k={diagram.k}")
    for word, vx in cube.vertices.items():
        arcs = smoothing_arcs(diagram, word)
        circles = circles_by_union_find(diagram.n, arcs)
        sigma = vx.state.successor
        cycles = {frozenset(c) for c in sigma.cycles()}
        require(cycles == circles and vx.c == len(circles),
                f"word {word}: circles differ from a union-find over its "
                f"arcs ({vx.c} vs {len(circles)})")
        arc_set = {frozenset(a) for a in arcs}
        require(all(frozenset((x, sigma(x))) in arc_set
                    for x in range(1, diagram.n + 1)),
                f"word {word}: successor leaves the smoothing's arcs")


def unoriented_circles(perm) -> frozenset:
    """Cycles up to rotation and reversal."""
    out = set()
    for cyc in perm.cycles():
        k = cyc.index(min(cyc))
        fwd = cyc[k:] + cyc[:k]
        rev = (fwd[0],) + tuple(reversed(fwd[1:]))
        out.add(min(fwd, rev))
    return frozenset(out)


def check_same_cube(cube, other, what: str) -> None:
    """Same words, same circles at every word, same edges."""
    require(set(cube.vertices) == set(other.vertices),
            f"{what}: vertex words differ")
    for word, vx in cube.vertices.items():
        require(unoriented_circles(vx.state.successor)
                == unoriented_circles(other.vertices[word].state.successor),
                f"{what}: circles differ at word {word}")
    edges = {(e.star_word, e.kind, e.sign) for e in cube.edges}
    require(edges == {(e.star_word, e.kind, e.sign) for e in other.edges},
            f"{what}: cube edges differ")
