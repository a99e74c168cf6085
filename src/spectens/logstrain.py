"""Hencky (logarithmic) strain eps = ln(B)/2 from the deformation gradient,
with the exact material tangent d(eps)/dB on every multiplicity branch."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import KinematicsError
from .isofunc import _apply, _apply_rows, half_log_map
from .spectral import Multiplicity, Spectrum, spectrum
from .tensor_core import _TEXT, SymTensor2, SymTensor4, _cauchy_green_terms, _reals

# Relative floor on the smallest stretch: below this the tensor logarithm is
# numerically meaningless even though the eigenvalue may still be positive.
SPD_RATIO_FLOOR = 1e-14

_HALF_LOG = half_log_map()
_FLOAT_INT = frozenset((float, int))


def left_cauchy_green(f) -> SymTensor2:
    """B = F F^T from a deformation gradient given as a flat row-major
    9-sequence or a 3x3 nested sequence.  Rejects det F <= 0 and an F
    whose B overflows."""
    try:
        n = len(f)
        if isinstance(f, _TEXT):
            raise TypeError(f"text {f!r} is not numbers")
        if n == 9:
            # float() also parses text, so entries of any type but float and
            # int go through _reals, which refuses it.
            x = f if _FLOAT_INT.issuperset(map(type, f)) else _reals(f, 9)
            rows = [[float(x[0]), float(x[1]), float(x[2])],
                    [float(x[3]), float(x[4]), float(x[5])],
                    [float(x[6]), float(x[7]), float(x[8])]]
        elif n == 3:
            rows = [_reals(row, 3) for row in f]
    except (TypeError, ValueError, LookupError, OverflowError) as exc:
        raise KinematicsError(
            f"deformation gradient must be a sequence of numbers or of rows of numbers: {exc}"
        ) from exc
    if n not in (3, 9):
        raise KinematicsError("deformation gradient must be 3x3 or flat length 9")
    det, b = _cauchy_green_terms(rows)
    if not det > 0.0:
        raise KinematicsError(f"deformation gradient has det = {det!r}, expected > 0")
    # An off-diagonal entry of B that overflows makes a diagonal one overflow.
    if not math.isfinite(b[0] + b[1] + b[2]):
        raise KinematicsError(f"B = F F^T overflows: its trace is {b[0] + b[1] + b[2]!r}")
    return SymTensor2(*b)


@dataclass(frozen=True, slots=True)
class LogStrainResult:
    b: SymTensor2
    eps: SymTensor2
    deps_db: SymTensor4
    branch: Multiplicity


def log_strain_from_b(b: SymTensor2) -> LogStrainResult:
    """eps = ln(B)/2 and d(eps)/dB for a left Cauchy-Green tensor B: the
    isotropic function of half_log_map, after a check that B is SPD."""
    sp = spectrum(b)
    if _not_spd(sp.lam):
        raise KinematicsError(
            f"B has principal stretches {sp.lam!r}; log strain needs a "
            "positive, non-degenerate spectrum")
    eps, deps = _apply(b, sp, _HALF_LOG)
    return LogStrainResult(b=b, eps=eps, deps_db=deps, branch=sp.mult)


def _log_strain_rows(b: SymTensor2, sp: Spectrum, ok) -> tuple:
    """log_strain_from_b on the rows of b and sp where ok, as _apply_rows:
    (eps as (n, 6), d(eps)/dB as (n, 6, 6), ok less the rows on which
    log_strain_from_b would raise)."""
    return _apply_rows(b, sp, _HALF_LOG, ok & ~_not_spd(sp.lam))


def _not_spd(lam):
    """Whether the spectrum lam, floats or (n,) arrays, fails the SPD check."""
    return (lam[0] <= 0.0) | (lam[2] <= SPD_RATIO_FLOOR * lam[0])


def log_strain(f) -> LogStrainResult:
    """Hencky strain of a deformation gradient: ln(F F^T)/2 with tangent."""
    return log_strain_from_b(left_cauchy_green(f))
