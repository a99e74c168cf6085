"""Hencky (logarithmic) strain eps = ln(B)/2 from the deformation gradient,
with the exact material tangent d(eps)/dB on every multiplicity branch."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import KinematicsError
from .isofunc import _apply, _apply_rows, half_log_map
from .spectral import _MULTS, Multiplicity, _decompose
from .tensor_core import SymTensor2, SymTensor4, left_cauchy_green

# Relative floor on the smallest stretch: below this the tensor logarithm is
# numerically meaningless even though the eigenvalue may still be positive.
SPD_RATIO_FLOOR = 1e-14

_HALF_LOG = half_log_map()


@dataclass(frozen=True, slots=True)
class LogStrainResult:
    b: SymTensor2
    eps: SymTensor2
    deps_db: SymTensor4
    branch: Multiplicity


def log_strain_from_b(b: SymTensor2) -> LogStrainResult:
    """eps = ln(B)/2 and d(eps)/dB for a left Cauchy-Green tensor B: the
    isotropic function of half_log_map, after a check that B is SPD."""
    dec = _decompose(b)
    lam = dec[0]
    if _not_spd(lam):
        raise KinematicsError(
            f"B has principal stretches {lam!r}; log strain needs a "
            "positive, non-degenerate spectrum")
    eps, deps = _apply(b, dec, _HALF_LOG)
    return LogStrainResult(b=b, eps=eps, deps_db=deps, branch=_MULTS[dec[1]])


def _log_strain_rows(b: SymTensor2, dec: tuple, ok) -> tuple:
    """log_strain_from_b on the rows of b and of its decomposition dec
    (_spectrum_rows) where ok, as _apply_rows: (eps as (n, 6), d(eps)/dB as
    (n, 6, 6), ok less the rows on which log_strain_from_b would raise)."""
    return _apply_rows(b, dec, _HALF_LOG, ok & ~_not_spd(dec[0]))


def _not_spd(lam):
    """Whether the spectrum lam, floats or (n,) arrays, fails the SPD check."""
    return (lam[0] <= 0.0) | (lam[2] <= SPD_RATIO_FLOOR * lam[0])


def log_strain(f) -> LogStrainResult:
    """Hencky strain of a deformation gradient: ln(F F^T)/2 with tangent."""
    return log_strain_from_b(left_cauchy_green(f))
