"""Polygonal links with exact rational coordinates: good diagrams, the cube
of smoothings with its permutation-group structure, the Jones polynomial and
rational Khovanov homology, and triangle-move deformations."""

__version__ = "0.1.0"

from .geometry import (GeometryError, DeformationError, DirectionSearchError,
                       PolygonalLink, validate_link, find_regular_direction,
                       refine_to_good, deform_add_vertex, deform_remove_vertex)
from .linkfile import (LinkFileError, parse_link, load_link, dump_link,
                       fixture_path, load_fixture)
from .diagram import (DiagramError, CrossingRecord, GoodDiagram,
                      build_good_diagram, good_diagram_auto)
from .perm import PermError, Permutation, DihedralFactor
from .cube import (CubeError, CubeMismatchError, SmoothingState, CubeVertex,
                   CubeEdge, Cube, initial_state, resolve, build_cube)
from .khovanov import (KhovanovError, LaurentPoly, jones_state_sum,
                       normalized_jones, build_complex, homology,
                       khovanov_homology, euler_characteristic)
from .moves import (MoveError, TriangleMove, classify_triangle_move,
                    transform_cube, apply_move)

__all__ = [
    "GeometryError", "DeformationError", "DirectionSearchError",
    "PolygonalLink", "validate_link", "find_regular_direction",
    "refine_to_good", "deform_add_vertex", "deform_remove_vertex",
    "LinkFileError", "parse_link", "load_link", "dump_link",
    "fixture_path", "load_fixture",
    "DiagramError", "CrossingRecord", "GoodDiagram",
    "build_good_diagram", "good_diagram_auto",
    "PermError", "Permutation", "DihedralFactor",
    "CubeError", "CubeMismatchError", "SmoothingState", "CubeVertex",
    "CubeEdge", "Cube", "initial_state", "resolve", "build_cube",
    "KhovanovError", "LaurentPoly", "jones_state_sum", "normalized_jones",
    "build_complex", "homology", "khovanov_homology", "euler_characteristic",
    "MoveError", "TriangleMove", "classify_triangle_move",
    "transform_cube", "apply_move",
]
