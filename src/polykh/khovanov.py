"""Jones polynomial and rational Khovanov homology from the cube of smoothings.

Each full smoothing contributes a tensor factor X = span{x_plus, x_minus} per
circle; cube edges act by the Frobenius multiplication m (merge) or
comultiplication Delta (split), with the edge sign (-1)^(number of 1s left of
the star).  Gradings: i = r_v - k_minus and
j = (#plus - #minus) + r_v + k_plus - 2 k_minus.

Generators.  A generator is a vertex offset plus a label bitmask.  The n
circles of a vertex are ordered by lowest member; circle t is bit n-1-t, set
for x_minus.  Vertices of one degree i come in lexicographic word order, and
a vertex's offset is the number of generators before it, so generator
offset + mask sits where itertools.product((x_plus, x_minus), repeat=n) puts
its labels.  m and Delta change the bits of the two or three circles they
touch; the other bits move as one block.

Storage.  The complex keeps nothing per generator or per circle.  A degree
keeps, per vertex, its word, offset, circle count n and top, the j of mask
0; generator mask has j = top - 2 popcount(mask), and j_grading reads it
from there.  While the complex is built, a circle is the bit mask of its
members.  d^i is one block per cube edge, each entry the edge's sign.  A
block's pattern depends only on (kind, n, a, b, c), and T(2,10) has 54 such
edge maps among 5120 edges, so each is one table, table[t] the sorted head
masks of tail mask t, and equal rows of different tables are one tuple.  A
tail vertex lists its out-edges as (head offset, sign, table index) by head
offset.

Gates.  Both run on the stored blocks of every complex.  Shape and q, once
per distinct (table, n_v, n_w, top_v - top_w), top the j of mask 0: signs
are +-1, the table has 2^n_v rows of increasing head masks below 2^n_w, and
top_v - 2 popcount(t) = top_w - 2 popcount(h) for each entry (t, h).  d^2:
the blocks of distinct (v, w), w two degrees above v, have disjoint
supports, so d^2 = 0 exactly when the signed composites of the paths
v -> u -> w sum to zero for each (v, w).  The sum is fixed by the square
type, the multiset of (s1 s2, table 1, table 2) over the paths (T(2,10): 274
types among 11,520 squares), and each type is checked once per build_complex
by comparing the sorted entries of its + and - composites.

Rank.  d preserves j, so each d^i splits into (i, j) blocks, and each block
is reduced on its own with integers only, one at a time: its columns are
listed from the vertex tops, as the masks of popcount (top - j) / 2, and its
pivots are dropped before the next block starts.  A row is reduced at the
column c of a pivot row p as  row - row[c]*p[c]*p  when p[c] = +-1, and
otherwise as a*row - b*p with a = p[c], b = row[c], divided by the gcd of
its entries.  Both are invertible row operations over Q (a != 0), so the
row space, and with it the rank over Q, is that of Gaussian elimination
over the rationals, without a single Fraction.

Complement rule.  The pivots of block (i-1, j) span im d^(i-1) and have
distinct leading generators Y, so C^(i,j) = im d^(i-1) + span{e_b : b not in
Y}.  d^i vanishes on im d^(i-1): build_complex's d^2 gate has proved it for
every complex it returns.  So the rank of block (i, j) is that of its
columns outside Y, and degrees are reduced in increasing i, each skipping
the leading generators of the degree before.  In a block, the first column
with each leading row is a pivot as it stands and stays a column index; a
column becomes a dict only to reduce or be reduced.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import chain, repeat
from math import comb, gcd
from operator import and_, eq, ge, ne, sub

from .cube import Cube


class KhovanovError(ValueError):
    pass


# ---------------------------------------------------------------------------
# integer Laurent polynomials in q


class LaurentPoly:
    """Laurent polynomial in q with integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {e: c for e, c in dict(coeffs or {}).items() if c != 0}

    @classmethod
    def circle(cls):
        """q + q^-1, the value of one unknotted circle."""
        return cls({1: 1, -1: 1})

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def divide_exact(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient; raises if the division leaves a remainder."""
        if not divisor:
            raise KhovanovError("division by zero polynomial")
        rem = dict(self.coeffs)
        d_top = max(divisor.coeffs)
        d_c = divisor.coeffs[d_top]
        # the least exponent of an exact quotient
        low = min(rem, default=0) - min(divisor.coeffs)
        out: dict[int, int] = {}
        while rem:
            top = max(rem)
            c = rem[top]
            if c % d_c != 0 or top - d_top < low:
                raise KhovanovError("non-exact Laurent division")
            q_e, q_c = top - d_top, c // d_c
            out[q_e] = out.get(q_e, 0) + q_c
            for e, dc in divisor.coeffs.items():
                ne = e + q_e
                nv = rem.get(ne, 0) - dc * q_c
                if nv:
                    rem[ne] = nv
                else:
                    rem.pop(ne, None)
        return LaurentPoly(out)

    def to_text(self) -> str:
        """Canonical text form: terms ``c*q^e`` ascending in e."""
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if not parts:
                parts.append(f"{c}*q^{e}")
            else:
                parts.append(f"{'+' if c > 0 else '-'} {abs(c)}*q^{e}")
        return " ".join(parts)

    def __repr__(self):
        return f"LaurentPoly({self.to_text()})"


# ---------------------------------------------------------------------------
# Jones state sum


def jones_state_sum(cube: Cube) -> LaurentPoly:
    """Unnormalized Jones polynomial from the full smoothings."""
    kp, km = cube.diagram.k_plus, cube.diagram.k_minus
    # vertices with the same (r, c) contribute the same term
    counts = Counter((sum(word), vx.c) for word, vx in cube.vertices.items())
    coeffs: dict[int, int] = defaultdict(int)
    for (r, c), mult in counts.items():
        # (q + q^-1)^c = sum over p of C(c, p) q^(c - 2p)
        shift, sign = r + kp - 2 * km, -1 if (r + km) % 2 else 1
        for p in range(c + 1):
            coeffs[c - 2 * p + shift] += sign * mult * comb(c, p)
    return LaurentPoly(coeffs)


def normalized_jones(j_hat: LaurentPoly) -> LaurentPoly:
    """J = J_hat / (q + q^-1); raises on non-divisible input."""
    return j_hat.divide_exact(LaurentPoly.circle())


# ---------------------------------------------------------------------------
# the chain complex


class DegreeBasis(Sequence):
    """The generators of one homological degree, as (word, mask) pairs.

    Vertices come in lexicographic word order; a vertex with n circles owns
    the 2^n indices ``offset + mask``, mask < 2^n, and generator mask has
    j = top - 2 popcount(mask), top the vertex's j of mask 0.
    """

    def __init__(self):
        self.words: list[tuple[int, ...]] = []
        self.offsets: list[int] = []
        self.circles: list[int] = []
        self.tops: list[int] = []
        self.size = 0

    def add_vertex(self, word: tuple[int, ...], n_circles: int,
                   top: int) -> int:
        """Append a vertex's generators; returns its offset."""
        offset = self.size
        self.words.append(word)
        self.offsets.append(offset)
        self.circles.append(n_circles)
        self.tops.append(top)
        self.size += 1 << n_circles
        return offset

    def j_counts(self) -> Counter:
        """j -> the number of generators with that j: a vertex has
        C(n, p) generators of j = top - 2p."""
        counts: Counter = Counter()
        for top, n in zip(self.tops, self.circles):
            for p in range(n + 1):
                counts[top - 2 * p] += comb(n, p)
        return counts

    def __len__(self):
        return self.size

    def __getitem__(self, index):
        if not 0 <= index < self.size:
            raise IndexError(index)
        t = bisect_right(self.offsets, index) - 1
        return self.words[t], index - self.offsets[t]


class Gradings(Sequence):
    """The j of each generator of one degree, read from the vertex tops."""

    __slots__ = ("basis",)

    def __init__(self, basis: DegreeBasis):
        self.basis = basis

    def __len__(self):
        return len(self.basis)

    def __getitem__(self, index):
        basis = self.basis
        if not 0 <= index < basis.size:
            raise IndexError(index)
        t = bisect_right(basis.offsets, index) - 1
        return basis.tops[t] - 2 * (index - basis.offsets[t]).bit_count()

    def __iter__(self):
        for top, n in zip(self.basis.tops, self.basis.circles):
            for mask in range(1 << n):
                yield top - 2 * mask.bit_count()


class Differential(Mapping):
    """d^i as a mapping (row, col) -> +-1, kept as edge blocks (module
    docstring): edge (h_off, sign, tix) in ``edges[v]`` sends column
    ``basis.offsets[v] + t`` to rows h_off + h, h in tables[tix][t]."""

    __slots__ = ("basis", "edges", "tables")

    def __init__(self, basis: DegreeBasis, edges: list[tuple], tables: list):
        self.basis, self.edges, self.tables = basis, edges, tables

    def column(self, col: int) -> dict[int, int]:
        """Column col as a dict row -> +-1, from its tail vertex's edges."""
        v = bisect_right(self.basis.offsets, col) - 1
        t = col - self.basis.offsets[v]
        return {h_off + h: sign for h_off, sign, tix in self.edges[v]
                for h in self.tables[tix][t]}

    def __getitem__(self, key):
        row, col = key
        if 0 <= col < len(self.basis) and row in (column := self.column(col)):
            return column[row]
        raise KeyError(key)

    def __iter__(self):
        return ((h_off + h, off + t)
                for off, edges in zip(self.basis.offsets, self.edges)
                for h_off, _sign, tix in edges
                for t, heads in enumerate(self.tables[tix]) for h in heads)

    def __len__(self):
        uses = Counter(tix for edges in self.edges for _, _, tix in edges)
        return sum(count * sum(map(len, self.tables[tix]))
                   for tix, count in uses.items())


@dataclass
class KhovanovComplex:
    basis: dict[int, DegreeBasis]                   # i -> ordered basis
    j_grading: dict[int, Gradings]                  # i -> j per basis element
    differentials: dict[int, Differential]          # i -> {(row, col): c}

    @property
    def degrees(self):
        return sorted(self.basis)

    def chain_euler(self) -> LaurentPoly:
        coeffs: Counter = Counter()
        for i, degree in self.basis.items():
            for j, count in degree.j_counts().items():
                coeffs[j] += (-1) ** i * count
        return LaurentPoly(coeffs)


def generator_count(cube: Cube) -> int:
    """The size of the chain complex, sum of 2^c over the cube's vertices,
    without building it."""
    return sum(1 << vx.c for vx in cube.vertices.values())


def build_complex(cube: Cube) -> KhovanovComplex:
    """Chain spaces, gradings and signed differential from the cube, with
    the q-grading and d^2 gates passed."""
    complex_ = _assemble(cube)
    _check_q_grading(complex_)
    _check_d_squared(complex_)
    return complex_


def _assemble(cube: Cube) -> KhovanovComplex:
    kp, km = cube.diagram.k_plus, cube.diagram.k_minus
    # each vertex's circles as a dict circle -> index, in circle order, a
    # circle as the bit mask of its members (never 0), made once for each
    # DihedralFactor: the cube holds one per distinct circle
    masks: dict = {}
    circles = {word: {masks.get(g) or masks.setdefault(
                          g, sum(map((1).__lshift__, g.cycle))): ix
                      for ix, g in enumerate(vx.groups)}
               for word, vx in cube.vertices.items()}

    basis: dict[int, DegreeBasis] = {}
    offset: dict[tuple, int] = {}
    for word in sorted(cube.vertices):
        r = sum(word)
        n = len(circles[word])
        offset[word] = basis.setdefault(r - km, DegreeBasis()).add_vertex(
            word, n, n + r + kp - 2 * km)

    # few edges differ in (kind, n, a, b, c): T(2,10) has 54 among 5120,
    # and all edges with one key share one table; equal rows of different
    # tables share one tuple
    tables: list[tuple[tuple[int, ...], ...]] = []
    table_of: dict[tuple, int] = {}
    pool: dict[tuple, tuple] = {}
    out_edges: dict[tuple, list] = defaultdict(list)
    for tail, head, kind, sign in cube.edges.core():
        tail_c, head_c = circles[tail], circles[head]
        (a, b), c = (_match(tail_c, head_c) if kind == "merge"
                     else _match(head_c, tail_c))
        key = (kind, len(tail_c), a, b, c)
        if key not in table_of:
            table_of[key] = len(tables)
            rows: list[list[int]] = [[] for _ in range(1 << len(tail_c))]
            for t, h in _edge_images(*key):
                rows[t].append(h)
            # from a list: regrowing tuple(map(...)) fragmented the heap
            tables.append(tuple([pool.setdefault(row, row)
                                 for row in map(tuple, map(sorted, rows))]))
        out_edges[tail].append((offset[head], sign, table_of[key]))
    diffs = {i: Differential(
        degree, [tuple(sorted(out_edges[w])) for w in degree.words], tables)
        for i, degree in basis.items()}
    return KhovanovComplex(basis, {i: Gradings(b) for i, b in basis.items()},
                           diffs)


def _match(two, one):
    """((a, b), c): circles a < b of ``two`` are circle c of ``one``, and
    every other circle is in both (each a dict circle -> index)."""
    gone = [(ix, s) for s, ix in two.items() if s not in one]
    new = [(ix, s) for s, ix in one.items() if s not in two]
    if len(gone) != 2 or len(new) != 1:
        raise KhovanovError("edge does not merge or split exactly two circles")
    (a, circle_a), (b, circle_b) = gone
    (c, circle_c), = new
    if circle_a | circle_b != circle_c:
        raise KhovanovError("merged circle membership mismatch")
    return (a, b), c


def _insert_zero(x: int, pos: int) -> int:
    """x with a 0 bit inserted at bit position pos."""
    return (x >> pos) << (pos + 1) | x & ((1 << pos) - 1)


def _edge_images(kind: str, n: int, a: int, b: int, c: int):
    """The edge map as (tail mask, head mask) pairs, all with coefficient 1.

    A merge sends tail circles a < b to head circle c (m); a split sends
    tail circle c to head circles a < b (Delta).  The tail has n circles,
    and every other circle keeps its label and its relative order.
    """
    out = []
    if kind == "merge":
        ta, tb, hc = n - 1 - a, n - 1 - b, n - 2 - c
        for rest in range(1 << (n - 2)):
            t = _insert_zero(_insert_zero(rest, tb), ta)
            h = _insert_zero(rest, hc)
            # m(+ +) = (+), m(+ -) = m(- +) = (-), m(- -) = 0
            out += ((t, h), (t | 1 << tb, h | 1 << hc),
                    (t | 1 << ta, h | 1 << hc))
    else:
        tc, ha, hb = n - 1 - c, n - a, n - b
        for rest in range(1 << (n - 1)):
            t = _insert_zero(rest, tc)
            h = _insert_zero(_insert_zero(rest, hb), ha)
            # Delta(+) = (+ -) + (- +), Delta(-) = (- -)
            out += ((t, h | 1 << hb), (t, h | 1 << ha),
                    (t | 1 << tc, h | 1 << ha | 1 << hb))
    return out


def _check_q_grading(complex_: KhovanovComplex) -> None:
    """The shape and q gate of the module docstring: signs, head offsets,
    and each distinct (table, n_v, n_w, top_v - top_w) once."""
    basis = complex_.basis
    checked: set[tuple] = set()
    for i, d in complex_.differentials.items():
        heads = basis[i + 1].offsets if i + 1 in basis else []
        for n, top, edges in zip(d.basis.circles, d.basis.tops, d.edges):
            w = -1
            for h_off, sign, tix in edges:
                if sign != 1 and sign != -1:
                    raise KhovanovError(f"edge sign {sign} is not +1 or -1")
                w = bisect_left(heads, h_off, w + 1)
                if heads[w:w + 1] != [h_off]:
                    raise KhovanovError(f"edge head {h_off} of degree {i} is "
                                        f"not a later vertex offset")
                key = (tix, n, basis[i + 1].circles[w],
                       top - basis[i + 1].tops[w])
                if key not in checked:
                    _check_table(d.tables[tix], *key[1:])
                    checked.add(key)


def _check_table(table, n_tail: int, n_head: int, top_gap: int) -> None:
    """2^n_tail rows of increasing head masks below 2^n_head, and each entry
    (t, h) keeps j: top_gap = top_v - top_w = 2 popcount(t) - 2 popcount(h)."""
    heads = list(chain.from_iterable(table))
    tails = list(chain.from_iterable(
        map(repeat, range(len(table)), map(len, table))))
    if len(table) != 1 << n_tail or heads and (
            min(heads) < 0 or max(heads) >> n_head) or any(map(
            and_, map(eq, tails, tails[1:]), map(ge, heads, heads[1:]))):
        raise KhovanovError(f"edge table is not 2^{n_tail} rows of increasing "
                            f"head masks below 2^{n_head}")
    if top_gap % 2 or any(map(ne, map(sub, map(int.bit_count, tails),
                                       map(int.bit_count, heads)),
                              repeat(top_gap // 2))):
        raise KhovanovError("differential does not preserve q-grading")


def _check_d_squared(complex_: KhovanovComplex) -> None:
    """d^{i+1} d^i = 0, one square type at a time (module docstring)."""
    basis, diffs = complex_.basis, complex_.differentials
    cancelling: set[tuple] = set()      # square types checked in this call
    for i, d in diffs.items():
        if i + 1 not in diffs:
            continue
        mid = dict(zip(basis[i + 1].offsets, diffs[i + 1].edges))
        for v, edges in enumerate(d.edges):
            squares: dict[int, list] = defaultdict(list)
            for u_off, s1, t1 in edges:
                for w_off, s2, t2 in mid[u_off]:
                    squares[w_off].append((s1 * s2, t1, t2))
            for w_off, paths in squares.items():
                paths = tuple(sorted(paths))
                if paths in cancelling:
                    continue
                if not _cancels(paths, d.tables):
                    raise KhovanovError(f"d^2 != 0 from {d.basis.words[v]} "
                                        f"to {basis[i + 2][w_off][0]}")
                cancelling.add(paths)


def _cancels(paths: tuple, tables: list) -> bool:
    """Whether the paths (s1 s2, table 1, table 2) of one square type sum to
    zero: the entries (t, h) of the composites with product +1 and with -1,
    as t << 32 | h (masks that fit in memory are below 2^32), are equal."""
    sums: tuple[list, list] = ([], [])
    for s, t1, t2 in paths:
        second = tables[t2]
        sums[s < 0].extend([t << 32 | h for t, mids in enumerate(tables[t1])
                            for m in mids for h in second[m]])
    for side in sums:
        side.sort()
    return sums[0] == sums[1]


# ---------------------------------------------------------------------------
# homology


def _pivots(rows, pivots=None, expand=None) -> dict[int, dict[int, int] | int]:
    """Pivot rows of integer rows (dicts col -> nonzero int), which it
    consumes, keyed by their leading (lowest) column; there are as many as
    the rank over Q.  Fraction-free elimination: see the module docstring.

    ``pivots`` is an initial pivot map to extend, whose entries may be int
    handles for the rows expand(handle); a handle is expanded only when its
    row reduces another."""
    if pivots is None:
        pivots = {}
    for row in rows:
        while row:
            col = min(row)
            piv = pivots.get(col)
            if piv is None:
                pivots[col] = row
                break
            if type(piv) is int:
                piv = pivots[col] = expand(piv)
            a, b = piv[col], row[col]
            if a != 1 and a != -1 and (b == 1 or b == -1):
                # keep the unit entry as the pivot, reduce the old pivot row
                pivots[col] = row
                row, piv, a, b = piv, row, b, a
            if a == 1 or a == -1:
                f = a * b
                for c2, v2 in piv.items():
                    nv = row.get(c2, 0) - f * v2
                    if nv:
                        row[c2] = nv
                    else:
                        del row[c2]
            else:
                row = _cross_reduce(a, row, b, piv)
    return pivots


def _cross_reduce(a: int, row: dict[int, int], b: int,
                  piv: dict[int, int]) -> dict[int, int]:
    """a*row - b*piv, divided by the gcd of its entries."""
    out = {c2: a * v for c2, v in row.items()}
    for c2, v2 in piv.items():
        nv = out.get(c2, 0) - b * v2
        if nv:
            out[c2] = nv
        else:
            del out[c2]
    g = gcd(*out.values())
    if g > 1:
        out = {c2: v // g for c2, v in out.items()}
    return out


def homology(complex_: KhovanovComplex) -> dict[tuple[int, int], int]:
    """Dimensions of the rational homology per bidegree (i, j)."""
    dims: dict[tuple[int, int], int] = {}
    ranks: dict[tuple[int, int], int] = {}
    counts = {i: b.j_counts() for i, b in complex_.basis.items()}
    # masks[n][p]: the n-bit masks of popcount p, increasing
    masks: dict[int, list[list[int]]] = {}

    # a block's columns are _pivots's rows, so a pivot's key is a generator
    # of the next degree; leading[i] flags those of d^(i-1), which block
    # (i, j) skips by the complement rule (module docstring)
    leading: dict[int, bytearray] = {}
    for i in sorted(complex_.differentials):
        d = complex_.differentials[i]
        degree = d.basis
        skip = leading.pop(i, None) or bytearray(len(degree))
        lead = leading[i + 1] = bytearray(
            len(complex_.basis[i + 1]) if i + 1 in complex_.basis else 0)
        for n in set(degree.circles) - masks.keys():
            masks[n] = [[] for _ in range(n + 1)]
            for mask in range(1 << n):
                masks[n][mask.bit_count()].append(mask)
        for j in sorted(counts[i]):
            # the first column with each leading (lowest) row is a pivot as
            # it stands; only the others are reduced, and only the pivots
            # they meet are expanded into dicts
            pivots: dict[int, dict | int] = {}
            rest: list[int] = []
            for off, n, top, edges in zip(degree.offsets, degree.circles,
                                          degree.tops, d.edges):
                p, odd = divmod(top - j, 2)
                if odd or not 0 <= p <= n:
                    continue
                # edges come by head offset, so a column's leading row is
                # in the first edge whose table row is not empty
                rows = [(h_off, d.tables[tix]) for h_off, _, tix in edges]
                for t in masks[n][p]:
                    if skip[off + t]:
                        continue
                    for h_off, table in rows:
                        if table[t]:
                            row = h_off + table[t][0]
                            if row in pivots:
                                rest.append(off + t)
                            else:
                                pivots[row] = off + t
                            break
            _pivots(map(d.column, rest), pivots, d.column)
            ranks[(i, j)] = len(pivots)
            for row in pivots:
                lead[row] = 1
            del pivots, rest    # before the next block's pivots are built

    for i, js in counts.items():
        for j, c in js.items():
            dim = c - ranks.get((i, j), 0) - ranks.get((i - 1, j), 0)
            if dim < 0:
                raise KhovanovError("negative homology dimension (rank bug)")
            if dim:
                dims[(i, j)] = dim
    return dims


def khovanov_homology(cube: Cube) -> dict[tuple[int, int], int]:
    return homology(build_complex(cube))


def euler_characteristic(table: dict[tuple[int, int], int]) -> LaurentPoly:
    coeffs: Counter = Counter()
    for (i, j), dim in table.items():
        coeffs[j] += (-1) ** i * dim
    return LaurentPoly(coeffs)


def homology_tsv(table: dict[tuple[int, int], int]) -> str:
    lines = [f"{i}\t{j}\t{dim}" for (i, j), dim in sorted(table.items())]
    return "\n".join(lines) + ("\n" if lines else "")
