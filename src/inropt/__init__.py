"""inropt: global eigenvalue optimization for one-parameter Hermitian
families, with applications to the inner numerical radius, definite
pencils, nearest definite pairs, QEP hyperbolicity, and saddle-point
shifts."""

from .errors import (ConvergenceFailure, EmptyLevelSet, InroptError,
                     InvalidGamma, InvalidParams, NonHermitianInput,
                     NotPositiveDefiniteMass, ReducedSolveFailure,
                     SingularPencil, VerificationFailure)
from .kernels import (Basis, EigDecomposition, HermitianOperator,
                      hermitian_eig, largest_eigpairs, orthonormal_extend,
                      pencil_unit_eigs, spectral_norm_ub)
from .param import (ClarkeInterval, EigEval, ParamHermitian, Term,
                    clarke_interval, default_gamma_trig, eig_max_eval)
from .results import MinResult, Status
from .support import (PiecewiseModel, SupportPoint, eigopt_minimize,
                      eigopt_minimize_callback)
from .levelset import (CircularInterval, LevelSetTrace, level_intervals,
                       levelset_minimize)
from .subspace import SubspaceState, subspace_minimize, verify_interpolation
from .definite import (CrawfordResult, DefiniteRepair, InnerRadiusResult,
                       crawford_number, eigenpair_backmap, inner_numerical_radius,
                       is_hyperbolic, nearest_definite_pair, rotate_pair,
                       saddle_shift)
from . import gallery, mmio

__version__ = "0.1.0"

__all__ = [
    "Basis", "CircularInterval", "ClarkeInterval", "ConvergenceFailure",
    "CrawfordResult", "DefiniteRepair", "EigDecomposition", "EigEval",
    "EmptyLevelSet", "HermitianOperator", "InnerRadiusResult",
    "InroptError", "InvalidGamma", "InvalidParams", "LevelSetTrace",
    "MinResult", "NonHermitianInput", "NotPositiveDefiniteMass",
    "ParamHermitian", "PiecewiseModel", "ReducedSolveFailure",
    "SingularPencil", "Status", "SubspaceState", "SupportPoint", "Term",
    "VerificationFailure", "clarke_interval",
    "crawford_number", "default_gamma_trig", "eig_max_eval",
    "eigenpair_backmap", "eigopt_minimize", "eigopt_minimize_callback",
    "gallery", "hermitian_eig", "inner_numerical_radius", "is_hyperbolic",
    "largest_eigpairs", "level_intervals", "levelset_minimize", "mmio",
    "nearest_definite_pair", "orthonormal_extend", "pencil_unit_eigs",
    "rotate_pair", "saddle_shift", "spectral_norm_ub", "subspace_minimize",
    "verify_interpolation",
]
