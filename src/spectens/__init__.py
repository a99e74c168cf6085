"""Closed-form spectral decomposition of symmetric 3x3 tensors.

Eigenvalues, eigenprojections, and their derivatives come from the Lode-angle
trigonometric solution rather than an iterative solver, with explicit handling
of double and triple eigenvalue coincidences.  On top of that sit isotropic
tensor functions with exact consistent tangents, the logarithmic strain of a
deformation gradient, and stress reconstruction from invariant-space return
maps.

A public name's submodule is imported on its first use (PEP 562), so
`import spectens` itself loads no numpy.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each public name, by the submodule that defines it.
_SOURCES = {
    "errors": "BranchError ContractError ConvergenceError "
              "DegeneracyError KinematicsError MapDomainError SpectensError",
    "isofunc": "ScalarEigenMap cube_map double_exp_map half_log_map isotropic_function "
               "square_map",
    "logstrain": "LogStrainResult log_strain log_strain_from_b",
    "plasticity": "InvariantReturnMap StrainPredictorInvariants StressInvariants "
                  "consistent_tangent linear_elastic_map predictor_invariants "
                  "reconstruct_stress stress_and_tangent stress_invariants vonmises_demo_map",
    "spectral": "MultTag Multiplicity Spectrum classify eigenvalues spectrum spin",
    "tensor_core": "IDENTITY2 IDENTITY4 IXI InvariantSet SymTensor2 SymTensor4 adjugate "
                   "ddot det deviator dtheta_dT invariants left_cauchy_green norm",
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
