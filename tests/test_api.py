"""The public API surface: a name added to or removed from the package shows
up here as a deliberate edit."""

import spectens

PUBLIC_NAMES = [
    "BranchError", "ClassifyTols", "ConditioningWarning", "ContractError",
    "ConvergenceError", "DEFAULT_TOLS", "DegeneracyError", "IDENTITY2",
    "IDENTITY4", "IXI", "InvariantMapValues", "InvariantReturnMap",
    "InvariantSet", "KinematicsError", "LogStrainResult", "MapDomainError",
    "MultTag", "Multiplicity", "ScalarEigenMap", "SpectensError", "Spectrum",
    "StrainPredictorInvariants", "StressInvariants", "SymTensor2",
    "SymTensor4", "TangentCheckReport", "ZERO2", "adjugate", "apply_distinct",
    "apply_double", "apply_triple", "check_scalar_map", "classify",
    "consistent_tangent", "cube_map", "d2_I3", "dJ3_ds", "ddot", "det",
    "deviator", "double_exp_map", "dtheta_dT", "dyad", "eigenbasis_distinct",
    "eigenbasis_double", "eigenvalues", "half_log_map", "identity_map",
    "invariants", "isotropic_function", "left_cauchy_green",
    "linear_elastic_map", "log_strain", "log_strain_from_b",
    "log_strain_tangent_check", "norm", "predictor_invariants",
    "reconstruct_stress", "scalar_map_invariants", "spectrum", "spin",
    "square_map", "stress_and_tangent", "stress_invariants", "sym_kron",
    "sym_square", "verify_return_map", "vonmises_demo_map",
]


def test_public_names_are_pinned():
    assert sorted(spectens.__all__) == PUBLIC_NAMES
