"""Orthogonal polynomials on the unit circle: recurrence data, second-kind
functions, and numerical verification of their matrix identities."""

from .cauchy import CauchyEval, cauchy_G, cauchy_Gstar, cauchy_eval, laurent_tail
from .errors import (
    AccuracyError,
    DegenerateMeasureError,
    NearBoundaryError,
    OpucError,
    ParameterRangeError,
    PoleError,
    UnsupportedWeightError,
)
from .matrix2 import Matrix2C
from .moments import MomentTable, moments_for, moments_quadrature
from .painleve import DpiiOrbit, dpii_iterate, dpii_residual
from .rh import (
    assemble_Y,
    jump_matrix,
    jump_residual,
    structure_matrix_numeric,
    transfer_matrix,
    transfer_residual,
)
from .structure import (
    curvature_residual_closed,
    curvature_residual_generic,
    first_order_residuals,
    mtilde,
    second_curvature_residual,
    second_order_residuals,
    structure_relation_residuals,
)
from .szego import PolyPair, VerblunskyTable, phi_pair, verblunsky_from_moments
from .weights import WeightSpec

__version__ = "1.0.0"

__all__ = [
    "AccuracyError",
    "CauchyEval",
    "DegenerateMeasureError",
    "DpiiOrbit",
    "Matrix2C",
    "MomentTable",
    "NearBoundaryError",
    "OpucError",
    "ParameterRangeError",
    "PolyPair",
    "PoleError",
    "UnsupportedWeightError",
    "VerblunskyTable",
    "WeightSpec",
    "assemble_Y",
    "cauchy_G",
    "cauchy_Gstar",
    "cauchy_eval",
    "curvature_residual_closed",
    "curvature_residual_generic",
    "dpii_iterate",
    "dpii_residual",
    "first_order_residuals",
    "jump_matrix",
    "jump_residual",
    "laurent_tail",
    "moments_for",
    "moments_quadrature",
    "mtilde",
    "phi_pair",
    "second_curvature_residual",
    "second_order_residuals",
    "structure_matrix_numeric",
    "structure_relation_residuals",
    "transfer_matrix",
    "transfer_residual",
    "verblunsky_from_moments",
]
