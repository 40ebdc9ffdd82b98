"""Finitely generated max-plus (tropical) convex sets and cones.

Scalars live in R u {-inf} under (max, +).  Values are floats: answers are
exact on integer input of float-representable size, not yet on decimals
(0.3 - 0.1 != 0.2 in floats); an integer that no float holds exactly
(2**53 + 1) is refused, not rounded.  ``render`` draws sets whose finite
coordinates are at most 2**51 in size.  Cones and convex sets are stored by
their generators (V-representation); the library computes membership via
residuated projection, extracts the unique basis of extreme rays, lists
extreme points, and produces Minkowski-type decomposition certificates
(at most n extreme generators for cone members, at most n+1 terms of extreme
points and recession rays for set members).
"""

from .cones import Cone, ConeDecomposition, NotMember, cones_equal
from .convex_sets import ConvexSet, SetDecomposition, sets_equal
from .halfspaces import HalfSpace, eval_form
from .linalg import (
    DimensionMismatch,
    TropMatrix,
    TropVector,
    combine,
    left_residual,
    project,
    vectors_equal,
)
from .semiring import ONE, ZERO, MaxPlusScalar, residual, scalars_equal

__all__ = [
    "Cone",
    "ConeDecomposition",
    "ConvexSet",
    "DimensionMismatch",
    "HalfSpace",
    "MaxPlusScalar",
    "NotMember",
    "ONE",
    "SetDecomposition",
    "TropMatrix",
    "TropVector",
    "ZERO",
    "combine",
    "cones_equal",
    "eval_form",
    "left_residual",
    "project",
    "residual",
    "scalars_equal",
    "sets_equal",
    "vectors_equal",
]

__version__ = "0.1.0"
