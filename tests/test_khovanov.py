"""Jones state sum, chain complex, and rational homology."""

from collections import Counter
from fractions import Fraction as F
from itertools import product
from math import lcm
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from polykh.khovanov import (KhovanovError, LaurentPoly, jones_state_sum,
                             normalized_jones, build_complex, homology,
                             khovanov_homology, euler_characteristic,
                             homology_tsv, Differential, _check_d_squared,
                             _pivots)
from polykh import build_good_diagram, build_cube, load_fixture

from conftest import DIR_Z, random_diagram, torus_table, twist_link

small_poly = st.dictionaries(st.integers(-6, 6), st.integers(-9, 9),
                             max_size=5).map(LaurentPoly)


class TestLaurentPoly:
    def test_text_form(self):
        p = LaurentPoly({1: 1, 3: 1, 5: 1, 9: -1})
        assert p.to_text() == "1*q^1 + 1*q^3 + 1*q^5 - 1*q^9"
        assert LaurentPoly().to_text() == "0"
        assert LaurentPoly({-2: 3}).to_text() == "3*q^-2"

    def test_zero_coefficients_dropped(self):
        assert LaurentPoly({4: 0}) == LaurentPoly()

    @given(small_poly, small_poly, small_poly)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)


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
        expected = LaurentPoly.zero()
        for word, vx in vertices.items():
            r = sum(word)
            term = (LaurentPoly.circle() ** vx.c).shifted(
                r + k_plus - 2 * (k - k_plus))
            expected = expected + (-term if (r + k - k_plus) % 2 else term)
        assert jones_state_sum(cube) == expected


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

    def test_d_squared_rejects_tampering(self, trefoil_cube):
        cx = build_complex(trefoil_cube)
        diffs = dict(cx.differentials)
        columns = [dict(image) for image in diffs[0].columns]
        image = next(image for image in columns if image)
        row = next(iter(image))
        image[row] = -image[row]
        _check_d_squared(diffs)
        diffs[0] = Differential(columns)
        with pytest.raises(KhovanovError, match="d\\^2"):
            _check_d_squared(diffs)


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
        for col, piv in _pivots(dict(row) for row in rows).items():
            assert piv and min(piv) == col

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

    def test_tsv_format(self):
        assert homology_tsv({(0, 1): 1, (0, -1): 1}) == "0\t-1\t1\n0\t1\t1\n"
        assert homology_tsv({}) == ""


def _full_rank_homology(cx):
    """Homology with every (i, j) block ranked on all of its columns, the
    reference for the complement rule that homology applies."""
    ranks = {}
    for i, d in cx.differentials.items():
        blocks = {}
        for col, image in enumerate(d.columns):
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
