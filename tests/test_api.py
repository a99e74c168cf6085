"""The public API surface: a name added to or removed from the package shows
up here as a deliberate edit."""

import subprocess
import sys

import spectens

PUBLIC_NAMES = [
    "BranchError", "ClassifyTols", "ConditioningWarning", "ContractError",
    "ConvergenceError", "DEFAULT_TOLS", "DegeneracyError", "IDENTITY2",
    "IDENTITY4", "IXI", "InvariantReturnMap", "InvariantSet",
    "KinematicsError", "LogStrainResult", "MapDomainError", "MultTag",
    "Multiplicity", "ScalarEigenMap", "SpectensError", "Spectrum",
    "StrainPredictorInvariants", "StressInvariants", "SymTensor2",
    "SymTensor4", "adjugate", "check_scalar_map", "classify",
    "consistent_tangent", "cube_map", "ddot", "det", "deviator",
    "double_exp_map", "dtheta_dT", "eigenvalues", "half_log_map",
    "identity_map", "invariants", "isotropic_function", "left_cauchy_green",
    "linear_elastic_map", "log_strain", "log_strain_from_b", "norm",
    "predictor_invariants", "reconstruct_stress", "spectrum", "spin",
    "square_map", "stress_and_tangent", "stress_invariants", "sym_square",
    "verify_return_map", "vonmises_demo_map",
]

# Names taken out of the package, and why.  None of them was on a production
# path: the evaluation calls the private kernels they wrapped.
REMOVED = {
    "ZERO2": "no caller",
    "dyad": "IXI is np.outer of the identity; tangents build dyads on arrays",
    "sym_kron": "the tangents call the kernel _sym_kron_m on components",
    "d2_I3": "spins use the constant table _D2, which the spin kernel folds in",
    "dJ3_ds": "equal to adjugate, which stays",
    "eigenbasis_distinct": "spectrum computes the distinct bases in its one pass",
    "eigenbasis_double": "spectrum computes the double bases from its classification",
    "apply_distinct": "isotropic_function dispatches to the branch bodies directly",
    "apply_double": "isotropic_function dispatches to the branch bodies directly",
    "apply_triple": "isotropic_function dispatches to the branch bodies directly",
    "scalar_map_invariants": "the degenerate branches chain the map values inline",
    "InvariantMapValues": "the map values are a tuple passed between two private bodies",
    "log_strain_tangent_check": "a finite-difference check belongs to the tests (tests/util.py)",
    "TangentCheckReport": "the report of that check, moved with it",
}


def test_public_names_are_pinned():
    assert sorted(spectens.__all__) == PUBLIC_NAMES
    assert not set(REMOVED) & set(dir(spectens))


def test_importing_the_package_leaves_the_oracle_unloaded():
    """The Jacobi oracle and the finite-difference checks judge the closed
    forms from outside; only the CLI's verify command loads them."""
    code = ("import sys, spectens, spectens.cli\n"
            "print('spectens.oracle' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
