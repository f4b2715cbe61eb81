"""Tests of the benchmark's own output checks.

    python3 bench/test_checks.py
"""

import sys
import unittest
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from polykh import (build_cube, build_good_diagram,  # noqa: E402
                    jones_state_sum, khovanov_homology, load_fixture)
from polykh.cube import Cube, CubeVertex  # noqa: E402

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from inputs import DIR_Z, twist_link  # noqa: E402

# the trefoil table and Jones polynomial quoted in README.md
README_TREFOIL = {(0, 1): 1, (0, 3): 1, (2, 5): 1, (3, 9): 1}
README_TREFOIL_JONES = {1: 1, 3: 1, 5: 1, 9: -1}


def corrupt(table):
    """The table with its first entry's dimension raised by one."""
    key = sorted(table)[0]
    return {**table, key: table[key] + 1}


class ClosedForm(unittest.TestCase):
    def test_trefoil_matches_readme(self):
        self.assertEqual(checks.torus_2n_table(3), README_TREFOIL)
        self.assertEqual(checks.euler_coeffs(README_TREFOIL),
                         README_TREFOIL_JONES)

    def test_hopf_link(self):
        self.assertEqual(checks.torus_2n_table(2),
                         {(0, 0): 1, (0, 2): 1, (2, 4): 1, (2, 6): 1})

    def test_twist_diagram_passes(self):
        diagram = build_good_diagram(twist_link(4), DIR_Z)
        cube = build_cube(diagram)
        checks.check_torus(diagram, khovanov_homology(cube),
                           jones_state_sum(cube).coeffs, 4)

    def test_corrupted_table_rejected(self):
        diagram = build_good_diagram(twist_link(4), DIR_Z)
        cube = build_cube(diagram)
        table = khovanov_homology(cube)
        j_hat = jones_state_sum(cube).coeffs
        with self.assertRaises(CheckFailed):
            checks.check_torus(diagram, corrupt(table), j_hat, 4)
        with self.assertRaises(CheckFailed):
            checks.check_euler(corrupt(table), j_hat)
        with self.assertRaises(CheckFailed):
            checks.check_mirror(table, corrupt(checks.mirror_table(table)),
                                j_hat, {-e: c for e, c in j_hat.items()})


class Planar(unittest.TestCase):
    def test_trefoil_is_good(self):
        checks.check_good_diagram(
            build_good_diagram(load_fixture("trefoil9"), DIR_Z))

    def test_missing_crossing_record_rejected(self):
        diagram = build_good_diagram(load_fixture("trefoil9"), DIR_Z)
        with self.assertRaises(CheckFailed):
            checks.check_good_diagram(
                replace(diagram, crossings=diagram.crossings[1:]))


class Cubes(unittest.TestCase):
    def setUp(self):
        diagram = build_good_diagram(load_fixture("trefoil9"), DIR_Z)
        self.cube = build_cube(diagram)
        vertices = dict(self.cube.vertices)
        a, b = (0, 0, 0), (1, 1, 1)
        vertices[a] = CubeVertex(a, vertices[b].state, vertices[b].groups)
        vertices[b] = CubeVertex(b, self.cube.vertices[a].state,
                                 self.cube.vertices[a].groups)
        self.swapped = Cube(diagram, self.cube.order, vertices,
                            self.cube.edges)

    def test_real_cube_passes(self):
        checks.check_cube_circles(self.cube)
        other = build_cube(self.cube.diagram, order=(3, 1, 2))
        checks.check_same_cube(self.cube, other, "order")

    def test_swapped_vertex_rejected(self):
        with self.assertRaises(CheckFailed):
            checks.check_cube_circles(self.swapped)
        with self.assertRaises(CheckFailed):
            checks.check_same_cube(self.cube, self.swapped, "swap")


if __name__ == "__main__":
    unittest.main()
