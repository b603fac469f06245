"""Exact-arithmetic scattering diagrams over the extended tropical vertex group.

The package computes consistent completions of rank-2 scattering diagrams
whose wall automorphisms pair a torus-ring automorphism with a gauge matrix,
and uses them to verify and solve wall-crossing formulas of coupled 2d-4d
type.  Everything is exact: rational coefficients, truncated formal
parameter, no floating point in any decision.
"""

from .exceptions import ConventionError, SchemaError
from .lattice import (
    WallKind,
    angular_sort,
    primitive_decompose,
    primitive_normal,
)
from .series import SeriesElem, SeriesMatrix, TruncationContext
from .vertexlie import AutPair, LieElem, bch, compose, exp, log
from .scattering import Diagram, Wall, complete, is_consistent, merge_wall, new_rays, path_ordered_product
from .groupoid import BpsContext, BpsProblem, KFactor, SFactor, solve_wcf

__all__ = [
    "AutPair",
    "BpsContext",
    "BpsProblem",
    "ConventionError",
    "Diagram",
    "KFactor",
    "LieElem",
    "SFactor",
    "SchemaError",
    "SeriesElem",
    "SeriesMatrix",
    "TruncationContext",
    "Wall",
    "WallKind",
    "angular_sort",
    "bch",
    "complete",
    "compose",
    "exp",
    "is_consistent",
    "log",
    "merge_wall",
    "new_rays",
    "path_ordered_product",
    "primitive_decompose",
    "primitive_normal",
    "solve_wcf",
]

__version__ = "0.1.0"
