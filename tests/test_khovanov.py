"""Jones state sum, chain complex, and rational homology."""

from collections import Counter
from dataclasses import replace
from fractions import Fraction as F
from itertools import product
from math import lcm
import random
import re
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from polykh.khovanov import (KhovanovError, LaurentPoly, jones_state_sum,
                             normalized_jones, build_complex, homology,
                             khovanov_homology, euler_characteristic,
                             homology_tsv, _check_d_squared,
                             _check_q_grading, _pivots)
from polykh import khovanov
from polykh import (build_good_diagram, build_cube, load_fixture,
                    PolygonalLink)
from polykh.perm import DihedralFactor

from conftest import DIR_Z, random_diagram, torus_table, twist_link

def times_circle(coeffs: dict[int, int]) -> Counter:
    """The coefficients of (q + q^-1) times the polynomial ``coeffs``."""
    out: Counter = Counter()
    for e, c in coeffs.items():
        out[e + 1] += c
        out[e - 1] += c
    return out


def circle_power(c: int) -> Counter:
    """The coefficients of (q + q^-1)^c by repeated multiplication: the
    reference for the state sum's binomial coefficients."""
    out = Counter({0: 1})
    for _ in range(c):
        out = times_circle(out)
    return out


small_coeffs = st.dictionaries(st.integers(-6, 6), st.integers(-9, 9),
                               max_size=5)


class TestLaurentPoly:
    def test_text_form(self):
        p = LaurentPoly({1: 1, 3: 1, 5: 1, 9: -1})
        assert p.to_text() == "1*q^1 + 1*q^3 + 1*q^5 - 1*q^9"
        assert LaurentPoly().to_text() == "0"
        assert LaurentPoly({-2: 3}).to_text() == "3*q^-2"

    def test_zero_coefficients_dropped(self):
        assert LaurentPoly({4: 0}) == LaurentPoly()

    @given(small_coeffs)
    def test_divide_exact_undoes_circle(self, coeffs):
        circle = LaurentPoly.circle()
        product = LaurentPoly(times_circle(coeffs))
        assert product.divide_exact(circle) == LaurentPoly(coeffs)
        # one more term below the product's lowest leaves a remainder
        low = min(product.coeffs, default=0) - 1
        with pytest.raises(KhovanovError, match="non-exact"):
            LaurentPoly({**product.coeffs, low: 1}).divide_exact(circle)


class TestJones:
    def test_unknot(self):
        cube = build_cube(build_good_diagram(load_fixture("square"), DIR_Z))
        assert jones_state_sum(cube) == LaurentPoly({-1: 1, 1: 1})
        assert normalized_jones(jones_state_sum(cube)) == LaurentPoly({0: 1})

    def test_two_component_unlink(self):
        cube = build_cube(build_good_diagram(load_fixture("two_squares"), DIR_Z))
        # (q + q^-1)^2
        assert jones_state_sum(cube) == LaurentPoly({-2: 1, 0: 2, 2: 1})

    def test_trefoil(self, trefoil_cube):
        j = jones_state_sum(trefoil_cube)
        assert j == LaurentPoly({1: 1, 3: 1, 5: 1, 9: -1})
        assert normalized_jones(j) == LaurentPoly({2: 1, 6: 1, 8: -1})

    def test_kinked_unknot_is_unknot(self):
        # one positive kink: the unnormalized polynomial is that of the unknot
        cube = build_cube(build_good_diagram(load_fixture("kink5"), DIR_Z))
        assert jones_state_sum(cube) == LaurentPoly({-1: 1, 1: 1})

    @given(st.integers(0, 5).flatmap(lambda k: st.tuples(
        st.integers(0, k), st.lists(st.integers(1, 6), min_size=2 ** k,
                                    max_size=2 ** k))))
    def test_grouped_sum_matches_per_vertex(self, data):
        # the state sum grouped by (r, c) equals one term per vertex
        k_plus, circles = data
        k = len(circles).bit_length() - 1
        vertices = {word: SimpleNamespace(c=c) for word, c in
                    zip(product((0, 1), repeat=k), circles)}
        cube = SimpleNamespace(diagram=SimpleNamespace(
            k_plus=k_plus, k_minus=k - k_plus), vertices=vertices)
        expected: Counter = Counter()
        for word, vx in vertices.items():
            r = sum(word)
            sign = -1 if (r + k - k_plus) % 2 else 1
            for e, c in circle_power(vx.c).items():
                expected[e + r + k_plus - 2 * (k - k_plus)] += sign * c
        assert jones_state_sum(cube) == LaurentPoly(expected)


class TestComplex:
    def test_trefoil_gradings(self, trefoil_cube):
        cx = build_complex(trefoil_cube)
        assert cx.degrees == [0, 1, 2, 3]
        dims = {i: len(b) for i, b in cx.basis.items()}
        assert dims == {0: 4, 1: 2 + 2 + 2, 2: 4 + 4 + 4, 3: 8}

    def test_chain_euler_equals_state_sum(self):
        rng = random.Random(31)
        for _ in range(8):
            diagram, _link, _dir = random_diagram(rng)
            cube = build_cube(diagram)
            cx = build_complex(cube)
            assert cx.chain_euler() == jones_state_sum(cube)

    def test_generators_match_label_tuples(self, trefoil_cube,
                                           whitehead_diagram):
        rng = random.Random(5)
        cubes = [trefoil_cube, build_cube(whitehead_diagram)]
        cubes += [build_cube(random_diagram(rng)[0]) for _ in range(4)]
        for cube in cubes:
            cx = build_complex(cube)
            index, diffs = _label_complex(cube)
            for (word, labels), (i, col) in index.items():
                mask = sum(1 << (len(labels) - 1 - t)
                           for t, label in enumerate(labels) if label == -1)
                assert cx.basis[i][col] == (word, mask)
            assert {i: dict(d) for i, d in cx.differentials.items() if d} \
                == diffs

    def test_mapping_view_matches_blocks(self, trefoil_cube,
                                         whitehead_diagram):
        # the Mapping read of the edge blocks: iteration, len, lookup and
        # column expansion agree, every entry is +-1, and no row repeats
        for cube in (trefoil_cube, build_cube(whitehead_diagram)):
            cx = build_complex(cube)
            for i, d in cx.differentials.items():
                keys = list(d)
                assert len(keys) == len(set(keys)) == len(d)
                columns = _columns(d, len(cx.basis[i]))
                assert columns == [d.column(col)
                                   for col in range(len(cx.basis[i]))]
                assert all(c in (1, -1) for image in columns
                           for c in image.values())
                with pytest.raises(KeyError):
                    d[(0, len(cx.basis[i]))]

    def test_d_squared_rejects_tampering(self, trefoil_cube):
        # one edge's sign flipped: every square through it has two paths
        # of one sign
        cx = build_complex(trefoil_cube)
        d = cx.differentials[0]
        v = next(v for v, edges in enumerate(d.edges) if edges)
        (h_off, sign, tix), *rest = d.edges[v]
        d.edges[v] = ((h_off, -sign, tix), *rest)
        _check_q_grading(cx)
        with pytest.raises(KhovanovError, match="d\\^2 != 0 from "
                           + re.escape(str(cx.basis[0].words[v])) + " to \\("):
            _check_d_squared(cx)

    def test_dropped_edge_rejected(self, trefoil_cube):
        # one edge dropped: the squares through it keep a single path
        cx = build_complex(trefoil_cube)
        d = cx.differentials[1]
        v = next(v for v, edges in enumerate(d.edges) if edges)
        d.edges[v] = d.edges[v][1:]
        _check_q_grading(cx)
        with pytest.raises(KhovanovError, match="d\\^2 != 0 from .* to "):
            _check_d_squared(cx)

    def test_d_squared_rejects_moved_row(self, whitehead_diagram):
        # an entry of a shared table moved to another head mask of the
        # same popcount: the q-grading gate passes it, the d^2 gate must not
        cx = build_complex(build_cube(whitehead_diagram))
        tables = cx.differentials[0].tables
        tix, moved = next((tix, moved) for tix, n_head in _table_heads(cx)
                          if (moved := _moved_entry(
                              _pairs(tables[tix]), n_head)))
        tables[tix] = _as_table(moved, len(tables[tix]))
        _check_q_grading(cx)
        with pytest.raises(KhovanovError, match="d\\^2"):
            _check_d_squared(cx)

    def test_head_mask_outside_block_rejected(self, trefoil_cube):
        cx = build_complex(trefoil_cube)
        tables = cx.differentials[0].tables
        tix, n_head = next(iter(_table_heads(cx)))
        t, h = _pairs(tables[tix])[0]
        pairs = _pairs(tables[tix]) + [(t, h + (1 << n_head))]
        tables[tix] = _as_table(pairs, len(tables[tix]))
        with pytest.raises(KhovanovError, match="below 2\\^"):
            _check_q_grading(cx)

    def test_entries_other_than_unit_rejected(self, trefoil_cube):
        cx = build_complex(trefoil_cube)
        d = cx.differentials[0]
        v = next(v for v, edges in enumerate(d.edges) if edges)
        (h_off, _sign, tix), *rest = d.edges[v]
        d.edges[v] = ((h_off, 2, tix), *rest)
        with pytest.raises(KhovanovError, match="sign 2 is not"):
            _check_q_grading(cx)

    def test_gate_work_follows_square_types(self, monkeypatch):
        # the d^2 gate compares composites once per square type, not once
        # per square, and its cache dies with the build_complex call
        cube = build_cube(build_good_diagram(twist_link(8, 1), DIR_Z))
        calls = []

        def counting(paths, tables):
            calls.append(paths)
            return real(paths, tables)

        real = khovanov._cancels
        monkeypatch.setattr(khovanov, "_cancels", counting)
        cx = build_complex(cube)
        squares = 28 * 2 ** 6          # C(8, 2) 2^(8-2)
        assert 0 < len(calls) <= len(_square_types(cx)) < squares
        # the same tables, one entry moved: the next build must catch it
        real_images = khovanov._edge_images

        def mutant(kind, n, a, b, c):
            pairs = real_images(kind, n, a, b, c)
            n_head = n - 1 if kind == "merge" else n + 1
            return _moved_entry(pairs, n_head) or pairs

        monkeypatch.setattr(khovanov, "_edge_images", mutant)
        with pytest.raises(KhovanovError, match="d\\^2"):
            build_complex(cube)

    def test_build_memory_per_generator(self):
        # with j per vertex, circles as bit masks and shared table rows the
        # build peaks at about 50 bytes a generator on T(2,8); one j per
        # generator and a frozenset per circle cost about 130, a dict per
        # column about 390
        cube = build_cube(build_good_diagram(twist_link(8, 1), DIR_Z))
        tracemalloc.start()
        try:
            cx = build_complex(cube)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        generators = sum(len(b) for b in cx.basis.values())
        assert peak / generators < 90

    def test_equal_table_rows_are_one_tuple(self, whitehead_diagram):
        for cube in (build_cube(whitehead_diagram), build_cube(
                build_good_diagram(twist_link(6, -1), DIR_Z))):
            tables = build_complex(cube).differentials[0].tables
            first: dict[tuple, tuple] = {}
            rows = [row for table in tables for row in table]
            assert len(set(rows)) < len(rows)
            assert all(first.setdefault(row, row) is row for row in rows)

    def test_j_grading_matches_generators(self):
        # j = (#plus - #minus) + r + k_plus - 2 k_minus, per (word, mask)
        cubes = [build_cube(build_good_diagram(load_fixture(name), DIR_Z))
                 for name in ("square", "two_squares", "trefoil9",
                              "whitehead12", "kink5", "riii")]
        cubes += [build_cube(random_diagram(random.Random(seed))[0])
                  for seed in range(10)]
        for cube in cubes:
            kp, km = cube.diagram.k_plus, cube.diagram.k_minus
            cx = build_complex(cube)
            assert cx.j_grading.keys() == cx.basis.keys()
            for i, degree in cx.basis.items():
                reference = [cube.vertices[word].c - 2 * mask.bit_count()
                             + sum(word) + kp - 2 * km
                             for word, mask in degree]
                js = cx.j_grading[i]
                assert len(js) == len(reference)
                assert list(js) == reference
                assert [js[g] for g in range(len(js))] == reference
                for outside in (len(js), -1):
                    with pytest.raises(IndexError):
                        js[outside]
            assert cx.chain_euler() == jones_state_sum(cube)

    def test_edge_changing_three_circles_rejected(self):
        # kink5's one edge splits (1 5 4 2 3) into (1 4 5) and (2 3); the
        # head tampered to (1 4) (5) (2 3) makes it change three circles
        cube = build_cube(build_good_diagram(load_fixture("kink5"), DIR_Z))
        head = cube.vertices[(1,)]
        assert [g.cycle for g in head.groups] == [(1, 4, 5), (2, 3)]
        cube.vertices[(1,)] = replace(head, groups=(
            DihedralFactor((1, 4)), DihedralFactor((2, 3)),
            DihedralFactor((5,))))
        with pytest.raises(KhovanovError, match="^edge does not merge or "
                           "split exactly two circles$"):
            build_complex(cube)

    def test_merged_circle_losing_a_member_rejected(self):
        # the tail's one circle, the union of the head's two, loses member 3
        cube = build_cube(build_good_diagram(load_fixture("kink5"), DIR_Z))
        tail = cube.vertices[(0,)]
        assert [g.cycle for g in tail.groups] == [(1, 5, 4, 2, 3)]
        cube.vertices[(0,)] = replace(tail, groups=(
            DihedralFactor((1, 5, 4, 2)),))
        with pytest.raises(KhovanovError,
                           match="^merged circle membership mismatch$"):
            build_complex(cube)


def _pairs(table):
    """A table's entries as (tail mask, head mask) pairs."""
    return [(t, h) for t, heads in enumerate(table) for h in heads]


def _as_table(pairs, rows):
    out = [[] for _ in range(rows)]
    for t, h in pairs:
        out[t].append(h)
    return tuple(tuple(sorted(row)) for row in out)


def _moved_entry(pairs, n_head):
    """pairs with its first movable entry sent to another head mask of the
    same popcount not yet in its row, or None if no entry can move."""
    for at, (t, h) in enumerate(pairs):
        row = {h2 for t2, h2 in pairs if t2 == t}
        for other in range(1 << n_head):
            if other not in row and other.bit_count() == h.bit_count():
                return pairs[:at] + [(t, other)] + pairs[at + 1:]
    return None


def _table_heads(cx):
    """{table index: head circles} over the complex's edges."""
    heads = {}
    for i, d in cx.differentials.items():
        for edges in d.edges:
            for h_off, _sign, tix in edges:
                w = cx.basis[i + 1].offsets.index(h_off)
                heads[tix] = cx.basis[i + 1].circles[w]
    return heads.items()


def _square_types(cx):
    """The distinct multisets of (s1 s2, first table, second table) over
    the paths between the complex's vertices two degrees apart."""
    types = set()
    for i, d in cx.differentials.items():
        if i + 1 not in cx.differentials:
            continue
        mid = dict(zip(cx.basis[i + 1].offsets, cx.differentials[i + 1].edges))
        for edges in d.edges:
            squares = {}
            for u_off, s1, t1 in edges:
                for w_off, s2, t2 in mid[u_off]:
                    squares.setdefault(w_off, []).append((s1 * s2, t1, t2))
            types.update(tuple(sorted(p)) for p in squares.values())
    return types


def _columns(d, size):
    """The columns of a differential as row -> coefficient dicts, read
    through its Mapping interface."""
    columns = [{} for _ in range(size)]
    for row, col in d:
        columns[col][row] = d[(row, col)]
    return columns


def _label_complex(cube):
    """The differential straight from the definition, on label tuples.

    Returns {(word, labels): (i, index)} and {i: {(row, col): c}}; circles
    are ordered by lowest member, and a degree's generators are ordered by
    word, then by labels in product((+1, -1)) order.
    """
    km = cube.diagram.k_minus
    circles = {w: [frozenset(c) for c in vx.state.successor.cycles()]
               for w, vx in cube.vertices.items()}
    index, size = {}, {}
    for word in sorted(cube.vertices):
        i = sum(word) - km
        for labels in product((1, -1), repeat=len(circles[word])):
            index[(word, labels)] = (i, size.get(i, 0))
            size[i] = size.get(i, 0) + 1
    diffs = {}
    for edge in cube.edges:
        tail, head = circles[edge.tail], circles[edge.head]
        gone = [s for s in tail if s not in head]
        new = [s for s in head if s not in tail]
        for labels in product((1, -1), repeat=len(tail)):
            label = dict(zip(tail, labels))
            if edge.kind == "merge":        # m: ++ -> +, +- and -+ -> -
                la, lb = (label[s] for s in gone)
                images = [] if la == lb == -1 else [{new[0]: min(la, lb)}]
            elif label[gone[0]] == 1:       # Delta: + -> +- + -+
                images = [{new[0]: 1, new[1]: -1}, {new[0]: -1, new[1]: 1}]
            else:                           # Delta: - -> --
                images = [{new[0]: -1, new[1]: -1}]
            i, col = index[(edge.tail, labels)]
            for image in images:
                out = tuple(image.get(s, label.get(s)) for s in head)
                _i, row = index[(edge.head, out)]
                diffs.setdefault(i, {})[(row, col)] = edge.sign
    return index, diffs


def _sparse_rank(rows):
    """Rank over Q of sparse rows, mappings col -> int or Fraction, by the
    integer elimination after clearing each row's denominators."""
    return len(_pivots(_integral_row(row) for row in rows))


def _integral_row(row):
    """The row times the lcm of its denominators, with zeros dropped."""
    den = lcm(*(F(v).denominator for v in row.values()))
    return {c: int(v * den) for c, v in row.items() if v}


def _fraction_rank(rows):
    """Dense Gaussian elimination over Fraction: the reference rank."""
    cols = sorted({c for row in rows for c in row})
    matrix = [[F(row.get(c, 0)) for c in cols] for row in rows]
    rank = 0
    for c in range(len(cols)):
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][c]),
                     None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        for r in range(rank + 1, len(matrix)):
            f = matrix[r][c] / matrix[rank][c]
            matrix[r] = [x - f * y for x, y in zip(matrix[r], matrix[rank])]
        rank += 1
    return rank


class TestRank:
    def test_known_ranks(self):
        rows = [{0: F(1), 1: F(2)}, {0: F(2), 1: F(4)}]
        assert _sparse_rank(rows) == 1
        rows = [{0: F(1)}, {1: F(1)}, {0: F(1), 1: F(1)}]
        assert _sparse_rank(rows) == 2
        assert _sparse_rank([]) == 0

    def test_non_unit_pivots(self):
        # no unit entry: cross-multiplication, then the gcd division
        assert _sparse_rank([{0: 2, 1: 4}, {0: 3, 1: 6}]) == 1
        assert _sparse_rank([{0: 2, 1: 3}, {0: 3, 1: 2}]) == 2
        # a unit entry arriving later takes over the pivot
        assert _sparse_rank([{0: 2, 1: 2}, {0: 1, 2: 1}, {1: 1, 2: -1}]) == 2
        assert _sparse_rank([{0: F(1, 2), 1: F(1, 3)}, {0: 3, 1: 2}]) == 1

    @given(st.lists(st.dictionaries(st.integers(0, 5), st.integers(-3, 3),
                                    max_size=6), max_size=7))
    def test_rank_matches_fraction_reference(self, rows):
        assert _sparse_rank(rows) == _fraction_rank(rows)

    @given(st.lists(st.dictionaries(st.integers(0, 5), st.integers(-3, 3),
                                    max_size=6), max_size=7))
    def test_pivots_keyed_by_leading_column(self, rows):
        # the complement rule in homology reads each key as the lowest
        # column of its pivot
        rows = [{c: v for c, v in row.items() if v} for row in rows]
        pivots = _pivots(dict(row) for row in rows)
        for col, piv in pivots.items():
            assert piv and min(piv) == col
        # seeded with the first row of each leading column as a handle,
        # expanded on demand, the elimination finds the same leading columns
        first = {}
        for h, row in enumerate(rows):
            if row:
                first.setdefault(min(row), h)
        rest = [dict(row) for h, row in enumerate(rows)
                if row and first[min(row)] != h]
        lazy = _pivots(rest, first, lambda h: dict(rows[h]))
        assert lazy.keys() == pivots.keys()

    @given(st.lists(st.dictionaries(st.integers(0, 4),
                                    st.fractions(min_value=-3, max_value=3,
                                                 max_denominator=4),
                                    max_size=5), max_size=5))
    def test_rank_bounds(self, rows):
        rows = [{c: v for c, v in r.items() if v} for r in rows]
        rows = [r for r in rows if r]
        r = _sparse_rank([dict(r) for r in rows])
        cols = {c for row in rows for c in row}
        assert 0 <= r <= min(len(rows), len(cols)) if rows else r == 0


class TestHomology:
    def test_unknot(self):
        cube = build_cube(build_good_diagram(load_fixture("square"), DIR_Z))
        assert khovanov_homology(cube) == {(0, -1): 1, (0, 1): 1}

    def test_unlink(self):
        cube = build_cube(build_good_diagram(load_fixture("two_squares"), DIR_Z))
        assert khovanov_homology(cube) == {(0, -2): 1, (0, 0): 2, (0, 2): 1}

    def test_trefoil(self, trefoil_cube):
        assert khovanov_homology(trefoil_cube) == {
            (0, 1): 1, (0, 3): 1, (2, 5): 1, (3, 9): 1}

    def test_euler_identity(self):
        rng = random.Random(77)
        for _ in range(8):
            diagram, _link, _dir = random_diagram(rng)
            cube = build_cube(diagram)
            assert (euler_characteristic(khovanov_homology(cube))
                    == jones_state_sum(cube))

    def test_whitehead_euler(self, whitehead_diagram):
        cube = build_cube(whitehead_diagram)
        table = khovanov_homology(cube)
        assert euler_characteristic(table) == jones_state_sum(cube)
        # alternating link: homology is thin (two adjacent diagonals)
        diagonals = sorted({j - 2 * i for (i, j) in table})
        assert len(diagonals) == 2 and diagonals[1] - diagonals[0] == 2
        assert sum(table.values()) == 10

    @pytest.mark.parametrize("sign", [1, -1])
    def test_torus_links_match_closed_form(self, sign):
        for n in range(2, 9):
            diagram = build_good_diagram(twist_link(n, sign), DIR_Z)
            assert [cr.sign for cr in diagram.crossings] == [sign] * n
            assert khovanov_homology(build_cube(diagram)) \
                == torus_table(n, sign)

    def test_matches_full_rank_reference(self):
        cubes = [build_cube(build_good_diagram(load_fixture(name), DIR_Z))
                 for name in ("square", "two_squares", "trefoil9",
                              "whitehead12", "kink5", "riii")]
        rng = random.Random(43)
        cubes += [build_cube(random_diagram(rng)[0]) for _ in range(8)]
        cubes += [build_cube(build_good_diagram(twist_link(n, sign), DIR_Z))
                  for n in range(2, 9) for sign in (1, -1)]
        for cube in cubes:
            cx = build_complex(cube)
            assert homology(cx) == _full_rank_homology(cx)

    def test_homology_memory_per_generator(self):
        # one (i, j) block at a time peaks at about 17 bytes a generator on
        # the negative T(2,8), a whole degree's blocks at once at about 23
        cx = build_complex(build_cube(
            build_good_diagram(twist_link(8, -1), DIR_Z)))
        tracemalloc.start()
        try:
            table = homology(cx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table == torus_table(8, -1)
        assert peak / sum(len(b) for b in cx.basis.values()) < 20

    def test_tsv_format(self):
        assert homology_tsv({(0, 1): 1, (0, -1): 1}) == "0\t-1\t1\n0\t1\t1\n"
        assert homology_tsv({}) == ""


def invariance_inputs():
    """(link, direction) of the fixtures other than twist12, whose
    refinement along a searched direction takes minutes, and of six seeded
    random links with good diagrams of at most six crossings."""
    inputs = [(load_fixture(name), DIR_Z)
              for name in ("square", "two_squares", "trefoil9",
                           "whitehead12", "kink5", "riii")]
    rng = random.Random(53)
    inputs += [random_diagram(rng)[1:] for _ in range(6)]
    return inputs


def table_and_jones(link, direction):
    cube = build_cube(build_good_diagram(link, direction))
    return khovanov_homology(cube), jones_state_sum(cube)


class TestInvariance:
    def test_mirror(self):
        # z -> -z, projected along (dx, dy, -dz): dim KH^{i,j}(mL) =
        # dim KH^{-i,-j}(L), and J-hat(q) goes to J-hat(1/q)
        chiral = 0
        for link, (dx, dy, dz) in invariance_inputs():
            table, j_hat = table_and_jones(link, (dx, dy, dz))
            mirrored = PolygonalLink(tuple(
                tuple((x, y, -z) for x, y, z in comp)
                for comp in link.components))
            table_m, j_hat_m = table_and_jones(mirrored, (dx, dy, -dz))
            assert table_m == {(-i, -j): d for (i, j), d in table.items()}
            assert j_hat_m == LaurentPoly(
                {-e: c for e, c in j_hat.coeffs.items()})
            chiral += table_m != table
        assert chiral           # the trefoil and whitehead12 at least

    def test_orientation_reversal(self):
        # reversing every component leaves the homology table and J-hat
        for link, direction in invariance_inputs():
            reversed_link = PolygonalLink(tuple(
                comp[::-1] for comp in link.components))
            assert (table_and_jones(reversed_link, direction)
                    == table_and_jones(link, direction))


def _full_rank_homology(cx):
    """Homology with every (i, j) block ranked on all of its columns, the
    reference for the complement rule that homology applies."""
    ranks = {}
    for i, d in cx.differentials.items():
        blocks = {}
        for col, image in enumerate(_columns(d, len(cx.basis[i]))):
            blocks.setdefault(cx.j_grading[i][col], []).append(image)
        for j, block in blocks.items():
            ranks[(i, j)] = _sparse_rank(block)
    dims = {}
    for i, js in cx.j_grading.items():
        for j, count in Counter(js).items():
            dim = count - ranks.get((i, j), 0) - ranks.get((i - 1, j), 0)
            if dim:
                dims[(i, j)] = dim
    return dims
