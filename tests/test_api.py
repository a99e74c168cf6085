"""The public API surface: a name added to or removed from the package shows
up here as a deliberate edit."""

import ast
import importlib
import pathlib
import subprocess
import sys

import pytest

import spectens

PUBLIC_NAMES = [
    "BranchError", "ConditioningWarning", "ContractError",
    "ConvergenceError", "DegeneracyError", "IDENTITY2",
    "IDENTITY4", "IXI", "InvariantReturnMap", "InvariantSet",
    "KinematicsError", "LogStrainResult", "MapDomainError", "MultTag",
    "Multiplicity", "ScalarEigenMap", "SpectensError", "Spectrum",
    "StrainPredictorInvariants", "StressInvariants", "SymTensor2",
    "SymTensor4", "adjugate", "classify", "consistent_tangent", "cube_map",
    "ddot", "det", "deviator", "double_exp_map", "dtheta_dT", "eigenvalues",
    "half_log_map", "invariants", "isotropic_function", "left_cauchy_green",
    "linear_elastic_map", "log_strain", "log_strain_from_b", "norm",
    "predictor_invariants", "reconstruct_stress", "spectrum", "spin",
    "square_map", "stress_and_tangent", "stress_invariants",
    "vonmises_demo_map",
]

# Names taken out of the package, and why.  None of them was on a production
# path: the evaluation calls the private kernels they wrapped.
REMOVED = {
    "ZERO2": "no caller",
    "dyad": "IXI is np.outer of the identity; tangents build dyads on arrays",
    "sym_kron": "the tangents use the constant table of tensor_core._sym_kron_m",
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
    "check_scalar_map": "a finite-difference gate of a user map, moved to tests/util.py",
    "verify_return_map": "a finite-difference gate of a user map, moved to tests/util.py",
    "identity_map": "a one-line ScalarEigenMap that only the tests use (tests/util.py)",
    "sym_square": "the spectrum calls the kernel _sym_square on components",
    "ClassifyTols": "the coincidence floors are the constants TAU_ABS, TAU_REL and TAU_GAP "
                    "of tensor_core, which also floor theta",
    "DEFAULT_TOLS": "the default of ClassifyTols, removed with it",
}


# The public constants and the submodule that defines each; every other
# public name is a class or function that names its own module.
CONSTANTS = {"IDENTITY2": "tensor_core", "IDENTITY4": "tensor_core", "IXI": "tensor_core"}


def _fresh(code: str) -> list[str]:
    """The stdout lines of code run in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_public_names_are_pinned():
    assert sorted(spectens.__all__) == PUBLIC_NAMES
    assert spectens.__all__ == PUBLIC_NAMES
    assert not set(REMOVED) & set(dir(spectens))
    assert not any(hasattr(spectens, name) for name in REMOVED)


def test_importing_the_package_leaves_the_oracle_unloaded():
    """The Jacobi oracle and the finite-difference checks judge the closed
    forms from outside; only the CLI's verify command loads them.  The
    package itself imports its submodules on first use, so `import
    spectens` loads neither numpy nor orjson, which only the CLI uses."""
    code = ("import sys, spectens\n"
            "print('numpy' in sys.modules, 'orjson' in sys.modules)\n"
            "import spectens.cli\n"
            "print('spectens.oracle' in sys.modules)\n")
    assert _fresh(code) == ["False", "False", "False"]


def test_each_public_name_is_the_object_of_its_submodule():
    """Checked in a fresh interpreter, so that every name is looked up for
    the first time."""
    code = ("import importlib, spectens\n"
            f"constants = {CONSTANTS!r}\n"
            "for name in spectens.__all__:\n"
            "    obj = getattr(spectens, name)\n"
            "    home = ('spectens.' + constants[name] if name in constants\n"
            "            else obj.__module__)\n"
            "    print(name, getattr(importlib.import_module(home), name) is obj)\n")
    assert _fresh(code) == [x for name in PUBLIC_NAMES for x in (name, "True")]


def test_dir_lists_every_public_name_before_any_is_used():
    code = ("import spectens\n"
            "print(*sorted(set(dir(spectens)) & set(spectens.__all__)))\n")
    assert _fresh(code) == PUBLIC_NAMES


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(spectens, "no_such_name")
    with pytest.raises(ImportError):
        exec("from spectens import no_such_name", {})


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from spectens import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES
    assert all(namespace[name] is getattr(spectens, name) for name in PUBLIC_NAMES)


# Each module of the package and its rank: a module imports only modules of
# a lower rank, so the shared kernels sit below every module that uses them.
RANKS = {"errors": 0, "tensor_core": 1, "spectral": 2, "oracle": 2, "isofunc": 3,
         "plasticity": 3, "logstrain": 4, "cli": 5, "__main__": 6, "__init__": 6}


def _imported_modules(tree: ast.Module) -> set[str]:
    """The package's modules that tree imports, also inside functions, by
    `from .x import`, `from . import x`, `from spectens(.x) import` or
    `import spectens.x`."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names
                       if a.name.startswith("spectens."))
        elif isinstance(node, ast.ImportFrom):
            path = ("spectens." * node.level + (node.module or "")).split(".")
            if path[0] != "spectens":
                continue
            out.update([path[1]] if len(path) > 1 and path[1]
                       else (a.name for a in node.names if a.name in RANKS))
    return out


def test_the_modules_import_one_way():
    src = pathlib.Path(spectens.__file__).parent
    files = {p.stem: p for p in src.glob("*.py")}
    assert set(files) == set(RANKS)
    upward = sorted((name, other)
                    for name, path in files.items()
                    for other in _imported_modules(ast.parse(path.read_text()))
                    if RANKS[other] >= RANKS[name])
    assert upward == []
