"""Closed-form spectral decomposition of symmetric 3x3 tensors.

Eigenvalues, eigenprojections, and their derivatives come from the Lode-angle
trigonometric solution rather than an iterative solver, with explicit handling
of double and triple eigenvalue coincidences.  On top of that sit isotropic
tensor functions with exact consistent tangents, the logarithmic strain of a
deformation gradient, and stress reconstruction from invariant-space return
maps.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .errors import (
    BranchError,
    ConditioningWarning,
    ContractError,
    ConvergenceError,
    DegeneracyError,
    KinematicsError,
    MapDomainError,
    SpectensError,
)
from .isofunc import (
    ScalarEigenMap,
    check_scalar_map,
    cube_map,
    double_exp_map,
    half_log_map,
    identity_map,
    isotropic_function,
    square_map,
)
from .logstrain import (
    LogStrainResult,
    left_cauchy_green,
    log_strain,
    log_strain_from_b,
)
from .plasticity import (
    InvariantReturnMap,
    StrainPredictorInvariants,
    StressInvariants,
    consistent_tangent,
    linear_elastic_map,
    predictor_invariants,
    reconstruct_stress,
    stress_and_tangent,
    stress_invariants,
    verify_return_map,
    vonmises_demo_map,
)
from .spectral import (
    DEFAULT_TOLS,
    ClassifyTols,
    MultTag,
    Multiplicity,
    Spectrum,
    classify,
    eigenvalues,
    spectrum,
    spin,
)
from .tensor_core import (
    IDENTITY2,
    IDENTITY4,
    IXI,
    InvariantSet,
    SymTensor2,
    SymTensor4,
    adjugate,
    ddot,
    det,
    deviator,
    dtheta_dT,
    invariants,
    norm,
    sym_square,
)

__all__ = [name for name, obj in globals().items()
           if not name.startswith("_") and not isinstance(obj, _ModuleType)]
