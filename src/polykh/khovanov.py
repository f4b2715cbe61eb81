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
touch; the other bits move as one block.  A differential is stored by
columns: column g maps each row of d(g) to its integer coefficient.

Rank.  d preserves j, so each d^i splits into (i, j) blocks, and each block
is reduced on its own with integers only.  A row is reduced at the column c
of a pivot row p as  row - row[c]*p[c]*p  when p[c] = +-1, and otherwise as
a*row - b*p with a = p[c], b = row[c], divided by the gcd of its entries.
Both are invertible row operations over Q (a != 0), so the row space, and
with it the rank over Q, is that of Gaussian elimination over the
rationals, without a single Fraction.

Complement rule.  The pivots of block (i-1, j) span im d^(i-1) and have
distinct leading generators Y, so C^(i,j) = im d^(i-1) + span{e_b : b not in
Y}.  d^i vanishes on im d^(i-1): build_complex's d^2 gate has proved it for
every complex it returns.  So the rank of block (i, j) is that of its
columns outside Y, and degrees are reduced in increasing i, each skipping
the leading generators of the degree before.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

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
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def monomial(cls, e: int, c: int = 1):
        return cls({e: c})

    @classmethod
    def circle(cls):
        """q + q^-1, the value of one unknotted circle."""
        return cls({1: 1, -1: 1})

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly({e: c * other for e, c in self.coeffs.items()})
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise KhovanovError("negative powers not supported")
        out = LaurentPoly.one()
        for _ in range(exponent):
            out = out * self
        return out

    def shifted(self, by: int) -> "LaurentPoly":
        return LaurentPoly({e + by: c for e, c in self.coeffs.items()})

    def divide_exact(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient; raises if the division leaves a remainder."""
        if not divisor:
            raise KhovanovError("division by zero polynomial")
        rem = dict(self.coeffs)
        d_top = max(divisor.coeffs)
        d_c = divisor.coeffs[d_top]
        out: dict[int, int] = {}
        while rem:
            top = max(rem)
            c = rem[top]
            if c % d_c != 0:
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

    def t_text(self) -> str:
        """The substitution q -> -t^(1/2), as text (half-integer exponents)."""
        terms: dict[Fraction, int] = {}
        for e, c in self.coeffs.items():
            ex = Fraction(e, 2)
            terms[ex] = terms.get(ex, 0) + c * (-1) ** e
        terms = {e: c for e, c in terms.items() if c}
        if not terms:
            return "0"
        parts = []
        for e in sorted(terms):
            c = terms[e]
            es = str(e.numerator) if e.denominator == 1 else f"{e.numerator}/{e.denominator}"
            head = f"{c}*t^{es}" if not parts else f"{'+' if c > 0 else '-'} {abs(c)}*t^{es}"
            parts.append(head)
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
    total = LaurentPoly.zero()
    circ = LaurentPoly.circle()
    for (r, c), mult in counts.items():
        sign = -1 if (r + km) % 2 else 1
        total = total + (circ ** c).shifted(r + kp - 2 * km) * (sign * mult)
    return total


def normalized_jones(j_hat: LaurentPoly) -> LaurentPoly:
    """J = J_hat / (q + q^-1); raises on non-divisible input."""
    return j_hat.divide_exact(LaurentPoly.circle())


# ---------------------------------------------------------------------------
# the chain complex


class DegreeBasis(Sequence):
    """The generators of one homological degree, as (word, mask) pairs.

    Vertices come in lexicographic word order; a vertex with n circles owns
    the 2^n indices ``offset + mask``, mask < 2^n.
    """

    def __init__(self):
        self.words: list[tuple[int, ...]] = []
        self.offsets: list[int] = []
        self.size = 0

    def add_vertex(self, word: tuple[int, ...], n_circles: int) -> int:
        """Append a vertex's generators; returns its offset."""
        offset = self.size
        self.words.append(word)
        self.offsets.append(offset)
        self.size += 1 << n_circles
        return offset

    def __len__(self):
        return self.size

    def __getitem__(self, index):
        if not 0 <= index < self.size:
            raise IndexError(index)
        t = bisect_right(self.offsets, index) - 1
        return self.words[t], index - self.offsets[t]


class Differential(Mapping):
    """d^i as a mapping (row, col) -> coefficient, stored by columns:
    ``columns[col]`` maps each row of the image of generator col to its
    nonzero integer coefficient."""

    def __init__(self, columns: list[dict[int, int]]):
        self.columns = columns

    def __getitem__(self, key):
        row, col = key
        if not 0 <= col < len(self.columns):
            raise KeyError(key)
        return self.columns[col][row]

    def __iter__(self):
        for col, image in enumerate(self.columns):
            for row in image:
                yield (row, col)

    def __len__(self):
        return sum(map(len, self.columns))


@dataclass
class KhovanovComplex:
    k_plus: int
    k_minus: int
    basis: dict[int, DegreeBasis]                   # i -> ordered basis
    j_grading: dict[int, list[int]]                 # i -> j per basis element
    differentials: dict[int, Differential]          # i -> {(row, col): c}

    @property
    def degrees(self):
        return sorted(self.basis)

    def chain_euler(self) -> LaurentPoly:
        coeffs: dict[int, int] = {}
        for i, js in self.j_grading.items():
            sign = (-1) ** i
            for j in js:
                coeffs[j] = coeffs.get(j, 0) + sign
        return LaurentPoly(coeffs)


def build_complex(cube: Cube) -> KhovanovComplex:
    """Chain spaces, gradings and signed differential from the cube."""
    kp, km = cube.diagram.k_plus, cube.diagram.k_minus
    circle_sets: dict[tuple, list[frozenset]] = {}
    for word, vx in cube.vertices.items():
        circle_sets[word] = [frozenset(g.cycle) for g in vx.groups]

    basis: dict[int, DegreeBasis] = {}
    j_grading: dict[int, list[int]] = {}
    offset: dict[tuple, int] = {}
    for word in sorted(cube.vertices):
        r = sum(word)
        i = r - km
        n = len(circle_sets[word])
        offset[word] = basis.setdefault(i, DegreeBasis()).add_vertex(word, n)
        top = n + r + kp - 2 * km
        j_grading.setdefault(i, []).extend(
            top - 2 * mask.bit_count() for mask in range(1 << n))

    # one shared int object per row index keeps the column dicts small
    row_ids = {i: list(range(len(b))) for i, b in basis.items()}
    columns = {i: [{} for _ in range(len(b))] for i, b in basis.items()}
    # few edges differ in (kind, n, a, b, c): T(2,10) has 54 among 5120.
    # Each edge map is kept as two mask arrays, 16 bytes a pair against 64
    # for a list of (tail, head) tuples, which raised peak RSS.
    images: dict[tuple, tuple[array, array]] = {}
    for edge in cube.edges:
        tail_c = circle_sets[edge.tail]
        head_c = circle_sets[edge.head]
        i = sum(edge.tail) - km
        if edge.kind == "merge":
            (a, b), c = _match_merge(tail_c, head_c)
        else:
            c, (a, b) = _match_split(tail_c, head_c)
        cols, rows = columns[i], row_ids[i + 1]
        t_off, h_off, sign = offset[edge.tail], offset[edge.head], edge.sign
        key = (edge.kind, len(tail_c), a, b, c)
        if key not in images:
            tails, heads = zip(*_edge_images(*key))
            images[key] = array("l", tails), array("l", heads)
        for t_mask, h_mask in zip(*images[key]):
            cols[t_off + t_mask][rows[h_off + h_mask]] = sign
    diffs = {i: Differential(cols) for i, cols in columns.items()}
    _check_q_grading(j_grading, diffs)
    _check_d_squared(diffs)
    return KhovanovComplex(kp, km, basis, j_grading, diffs)


def _match_merge(tail_c, head_c):
    tail_set, head_set = set(tail_c), set(head_c)
    changed_t = [ix for ix, s in enumerate(tail_c) if s not in head_set]
    changed_h = [ix for ix, s in enumerate(head_c) if s not in tail_set]
    if len(changed_t) != 2 or len(changed_h) != 1:
        raise KhovanovError("merge edge does not merge exactly two circles")
    if tail_c[changed_t[0]] | tail_c[changed_t[1]] != head_c[changed_h[0]]:
        raise KhovanovError("merged circle membership mismatch")
    return (changed_t[0], changed_t[1]), changed_h[0]


def _match_split(tail_c, head_c):
    (a, b), c = _match_merge(head_c, tail_c)
    return c, (a, b)


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


def _check_q_grading(j_grading, diffs):
    for i, d in diffs.items():
        j_src, j_dst = j_grading[i], j_grading.get(i + 1)
        for col, image in enumerate(d.columns):
            j = j_src[col]
            for row in image:
                if j_dst[row] != j:
                    raise KhovanovError("differential does not preserve q-grading")


def _check_d_squared(diffs):
    """d^{i+1} d^i = 0, column by column; every column lies in one (i, j)
    block, and so does its image."""
    for i in diffs:
        if i + 1 not in diffs:
            continue
        second = diffs[i + 1].columns
        for image in diffs[i].columns:
            acc: dict[int, int] = {}
            for mid, c1 in image.items():
                for row, c2 in second[mid].items():
                    acc[row] = acc.get(row, 0) + c1 * c2
            if any(acc.values()):
                raise KhovanovError(f"d^2 != 0 between columns {i} and {i + 2}")


# ---------------------------------------------------------------------------
# homology


def _pivots(rows) -> dict[int, dict[int, int]]:
    """Pivot rows of integer rows (dicts col -> nonzero int), which it
    consumes, keyed by their leading (lowest) column; there are as many as
    the rank over Q.  Fraction-free elimination: see the module docstring."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        while row:
            col = min(row)
            piv = pivots.get(col)
            if piv is None:
                pivots[col] = row
                break
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

    # a block's columns are _pivots's rows, so a pivot's key is a generator
    # of the next degree; leading[i] flags those of d^(i-1), which block
    # (i, j) skips by the complement rule (module docstring)
    leading: dict[int, bytearray] = {}
    for i in sorted(complex_.differentials):
        columns = complex_.differentials[i].columns
        j_src = complex_.j_grading[i]
        skip = leading.pop(i, None) or bytearray(len(columns))
        blocks: dict[int, list[dict[int, int]]] = {}
        for col, image in enumerate(columns):
            if image and not skip[col]:
                blocks.setdefault(j_src[col], []).append(image)
        size = len(complex_.j_grading.get(i + 1, ()))
        lead = leading[i + 1] = bytearray(size)
        for j, block in blocks.items():
            pivots = _pivots(dict(image) for image in block)
            ranks[(i, j)] = len(pivots)
            for row in pivots:
                lead[row] = 1
            del pivots      # before the next block's pivots are built

    for i, js in complex_.j_grading.items():
        count: dict[int, int] = {}
        for j in js:
            count[j] = count.get(j, 0) + 1
        for j, c in count.items():
            dim = c - ranks.get((i, j), 0) - ranks.get((i - 1, j), 0)
            if dim < 0:
                raise KhovanovError("negative homology dimension (rank bug)")
            if dim:
                dims[(i, j)] = dim
    return dims


def khovanov_homology(cube: Cube) -> dict[tuple[int, int], int]:
    return homology(build_complex(cube))


def euler_characteristic(table: dict[tuple[int, int], int]) -> LaurentPoly:
    out = LaurentPoly.zero()
    for (i, j), dim in table.items():
        out = out + LaurentPoly.monomial(j, (-1) ** i * dim)
    return out


def homology_tsv(table: dict[tuple[int, int], int]) -> str:
    lines = [f"{i}\t{j}\t{dim}" for (i, j), dim in sorted(table.items())]
    return "\n".join(lines) + ("\n" if lines else "")
