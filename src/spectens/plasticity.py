"""Stress reconstruction from invariant-space return maps.

A return map sends the strain-predictor invariants (eps_v, eps_q, theta_eps)
to stress invariants (p, q, theta_sigma).  Reconstruction rebuilds the full
stress tensor on the predictor's eigenbasis; the consistent tangent
d(sigma)/d(eps) follows by the chain rule through eigenvalues, basis spins,
and the Lode-angle gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import Callable

import numpy as np

from .errors import ContractError
from .spectral import (
    MultTag,
    Spectrum,
    _I,
    _anchored,
    _coincident_tangent,
    _double_values,
    _eigen_terms,
    _spin_sum,
    spectrum,
)
from .tensor_core import (
    COS3THETA_FLOOR,
    IDENTITY2,
    InvariantSet,
    SymTensor2,
    SymTensor4,
    _E,
    _ROW_MATH,
    _as_vec,
    _called,
    _dtheta,
    _dtheta_of_dev,
    _per_row,
    deviator,
    invariants,
)

ThreeVec = tuple[float, float, float]


@dataclass(frozen=True, slots=True)
class StrainPredictorInvariants:
    """Volumetric strain eps_v = tr(eps), deviatoric magnitude
    eps_q = 2 sqrt(J2/3), and the Lode angle of the strain predictor."""

    eps_v: float
    eps_q: float
    theta_eps: float
    theta_defined: bool


@dataclass(frozen=True, slots=True)
class StressInvariants:
    """Mean stress p = I1/3, deviatoric magnitude q = sqrt(3 J2), Lode angle."""

    p: float
    q: float
    theta_sigma: float


@dataclass(frozen=True, slots=True)
class InvariantReturnMap:
    """Invariant-space constitutive map.  Each scalar takes
    (eps_v, eps_q, theta_eps); each gradient returns the partials in that
    same order.  q must be nonnegative on the admissible domain, and
    theta_sigma(eps_v, eps_q, +-pi/6) = +-pi/6 for the stress to be
    continuous at the double switch, where the stress deviator is taken
    parallel to the strain's and the stress also reads grad_theta_sigma."""

    p: Callable[[float, float, float], float]
    q: Callable[[float, float, float], float]
    theta_sigma: Callable[[float, float, float], float]
    grad_p: Callable[[float, float, float], ThreeVec]
    grad_q: Callable[[float, float, float], ThreeVec]
    grad_theta_sigma: Callable[[float, float, float], ThreeVec]


def predictor_invariants(eps: SymTensor2) -> StrainPredictorInvariants:
    inv = invariants(eps)
    return StrainPredictorInvariants(*_predictor_args(inv, math), inv.theta_defined)


def _predictor_args(inv: InvariantSet, m) -> ThreeVec:
    """(eps_v, eps_q, theta_eps) of a strain predictor with invariants inv;
    floats or (n,) arrays, with sqrt from m."""
    return inv.i1, 2.0 * m.sqrt(inv.j2 / 3.0), inv.theta


def stress_invariants(sig: SymTensor2) -> StressInvariants:
    inv = invariants(sig)
    return StressInvariants(p=inv.i1 / 3.0, q=math.sqrt(3.0 * inv.j2),
                            theta_sigma=inv.theta)


def reconstruct_stress(eps_star: SymTensor2, rm: InvariantReturnMap) -> SymTensor2:
    """sigma(eps_star) on the branch picked by the predictor's multiplicity.

    Distinct: the three principal stresses p + (2/3) q sin(beta_sigma_i) are
    placed on the predictor's eigenbases (anchored at the middle one).
    Double: theta carries no information, so the stress deviator is taken
    parallel to the strain deviator and theta_sigma is not consulted; a
    pair split within the gap tolerance turns it at the rate
    d(theta_sigma)/d(theta_eps) of grad_theta_sigma (see
    spectral._double_values).  Triple: p I.
    """
    sp = spectrum(eps_star)
    return _stress(eps_star, sp, _map_at(sp, rm))


def consistent_tangent(eps_star: SymTensor2, rm: InvariantReturnMap) -> SymTensor4:
    """Exact d(sigma)/d(eps_star) of reconstruct_stress at eps_star.

    On the Double branch, perturbations that split the repeated pair turn
    the stress deviator at d(theta_sigma)/d(theta_eps), the only theta
    partial of the map consulted there; the Triple branch consults none.
    """
    sp = spectrum(eps_star)
    return _tangent(eps_star, sp, rm, _map_at(sp, rm))


def stress_and_tangent(eps_star: SymTensor2,
                       rm: InvariantReturnMap) -> tuple[SymTensor2, SymTensor4]:
    """(reconstruct_stress, consistent_tangent) at eps_star from one spectral
    decomposition of the predictor and one evaluation of the map."""
    sp = spectrum(eps_star)
    mv = _map_at(sp, rm)
    return _stress(eps_star, sp, mv), _tangent(eps_star, sp, rm, mv)


_SHIFTS = (2.0 * math.pi / 3.0, 0.0, -2.0 * math.pi / 3.0)
# Where a return map is called, for the messages of _called.
_AT = "(eps_v, eps_q, theta_eps) = ({0!r}, {1!r}, {2!r})"


def _map_at(sp: Spectrum, rm: InvariantReturnMap):
    """The map at the predictor of sp, for the stress and its tangent:
    (args, p, q, theta_sigma, principal stresses, in-pair coefficient).  The
    triple branch evaluates only p, at args = (eps_v, 0, 0); only the
    distinct branch consults theta_sigma and forms the principal stresses,
    and only the double branch grad_theta_sigma, for the in-pair coefficient
    (_in_pair); each field is read through _called.  A field that it
    refuses, or q < 0, is a ContractError."""
    args = _predictor_args(sp.inv, math)
    tag = sp.mult.tag
    if tag is MultTag.TRIPLE:
        args = (args[0], 0.0, 0.0)
    p = _called(rm.p, args, (), ContractError, "return map p", _AT)
    if tag is MultTag.TRIPLE:
        return args, p, 0.0, None, None, None
    q = _called(rm.q, args, (), ContractError, "return map q", _AT)
    if q < 0.0:
        raise ContractError(f"return map produced q = {q!r} at {_AT.format(*args)}; "
                            "q must be >= 0")
    if tag is MultTag.DISTINCT:
        th = _called(rm.theta_sigma, args, (), ContractError, "return map theta_sigma", _AT)
        return args, p, q, th, _eigen_terms(p, (2.0 / 3.0) * q, th, math)[:3], None
    dth = _called(rm.grad_theta_sigma, args, (3,), ContractError,
                  "return map grad_theta_sigma", _AT)
    return args, p, q, None, None, _in_pair(dth[2], q, args[1])


def _stress(eps_star: SymTensor2, sp: Spectrum, mv) -> SymTensor2:
    """reconstruct_stress from the map values mv of _map_at."""
    tag = sp.mult.tag
    if tag is MultTag.DISTINCT:
        return _anchored(mv[4], sp.bases[0], sp.bases[2])
    args, p, q = mv[:3]
    if tag is MultTag.TRIPLE:
        return p * IDENTITY2
    return SymTensor2(*_double_values(deviator(eps_star).as_tuple(), args[1],
                                      float(sp.mult.theta_sign), q, p, mv[5], sp.inv.j2,
                                      sp.inv.j3))


def _tangent(eps_star: SymTensor2, sp: Spectrum, rm: InvariantReturnMap,
             mv) -> SymTensor4:
    args, _, q, th, sig, c = mv
    tag = sp.mult.tag
    gp = _called(rm.grad_p, args, (3,), ContractError, "return map grad_p", _AT)
    gq = _called(rm.grad_q, args, (3,), ContractError, "return map grad_q", _AT)
    s = deviator(eps_star).as_tuple()
    if tag is not MultTag.DISTINCT:
        # eps_q is 0 on the triple branch, where the kernel reads no sign.
        sign = -1.0 if tag is MultTag.DOUBLE_HIGH_UNIQUE else 1.0
        return SymTensor4._of(_coincident_tangent(s, args[1], sign, q, gp, gq, c))
    gth = _called(rm.grad_theta_sigma, args, (3,), ContractError,
                  "return map grad_theta_sigma", _AT)
    f = 2.0 / (3.0 * args[1])
    # Rows: gradients of the predictor invariants (eps_v, eps_q, theta_eps).
    grads = (*_I, *[f * x for x in s], *_dtheta_of_dev(s, sp.inv))
    m = _spin_sum(eps_star, sp, (sig[0] - sig[1], 0.0, sig[2] - sig[1]),
                  tail=(grads, _dsigma(gp, gq, gth, q, th, math)))
    return SymTensor4._of(m)


def _in_pair(dth, q, eps_q):
    """The in-pair coefficient of _coincident_tangent on a double branch:
    splitting the repeated pair turns the Lode angle of the stress at
    dth = d(theta_sigma)/d(theta_eps), not at 1.  Floats or (n,) arrays."""
    return (dth - 1.0) * (2.0 * q / (3.0 * eps_q))


def _dsigma(gp, gq, gth, q, th, m) -> list:
    """Row i: d(sigma_i)/d(x) for x in (eps_v, eps_q, theta_eps), from the
    map's gradients; floats or (n,) arrays, with sin and cos from m."""
    out = []
    for sh in _SHIFTS:
        s, qc = m.sin(th + sh), q * m.cos(th + sh)
        out.append([gp[0] + (2.0 / 3.0) * (gq[0] * s + qc * gth[0]),
                    gp[1] + (2.0 / 3.0) * (gq[1] * s + qc * gth[1]),
                    gp[2] + (2.0 / 3.0) * (gq[2] * s + qc * gth[2])])
    return out


@np.errstate(all="ignore")
def _stress_tangent_rows(eps_star: SymTensor2, sp: Spectrum, rm: InvariantReturnMap,
                         ok: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """stress_and_tangent on the rows of eps_star and sp where ok, whose
    entries are (n,) arrays and whose mult holds the class codes of
    _spectrum_rows: (sigma as (n, 6), tangent as (n, 6, 6), ok less the
    rows on which stress_and_tangent would raise).  The map is called only
    on rows that are still ok, and only where _map_at and _tangent call it."""
    inv, code = sp.inv, sp.mult
    dist, triple = code == 0, code == 3
    eps_v, eps_q, theta = _predictor_args(inv, _ROW_MATH)
    # _map_at evaluates the triple branch at (eps_v, 0, 0).
    args = (eps_v, np.where(triple, 0.0, eps_q), np.where(triple, 0.0, theta))
    p, ok = _per_row(rm.p, ok, args)
    q, ok_q = _per_row(rm.q, ok & ~triple, args)
    th, ok_th = _per_row(rm.theta_sigma, ok & dist, args)
    ok &= (triple | ok_q & (q >= 0.0)) & (~dist | ok_th)
    sig = _eigen_terms(p, (2.0 / 3.0) * q, th, _ROW_MATH)[:3]
    gp, ok = _per_row(rm.grad_p, ok, args, (3,))
    gq, ok = _per_row(rm.grad_q, ok, args, (3,))
    gth, ok_th = _per_row(rm.grad_theta_sigma, ok & ~triple, args, (3,))
    ok &= triple | ok_th
    gp, gq, gth = (tuple(g.T) for g in (gp, gq, gth))
    # The guard of dtheta_dT, which only the distinct branch calls; theta is
    # defined on every distinct row.
    cos3t = _ROW_MATH.cos(3.0 * inv.theta)
    ok &= ~dist | ~(abs(cos3t) <= COS3THETA_FLOOR)
    f = 2.0 / (3.0 * eps_q)
    s = deviator(eps_star).as_tuple()
    grads = (*_I, *[f * x for x in s], *_dtheta(s, inv.j2, inv.theta, cos3t, _ROW_MATH))
    tan = _spin_sum(eps_star, sp, (sig[0] - sig[1], 0.0, sig[2] - sig[1]),
                    tail=(grads, _dsigma(gp, gq, gth, q, th, _ROW_MATH)))
    sigma = _as_vec(_anchored(sig, sp.bases[0], sp.bases[2]))
    # The double and triple rows, with the arguments _stress and _tangent
    # give the kernels.
    rows = np.flatnonzero(code)
    code, eps_q, p, q = code[rows], args[1][rows], p[rows], q[rows]
    kern = (tuple(x[rows] for x in s), eps_q, np.where(code == 1, -1.0, 1.0), q)
    c = _in_pair(gth[2][rows], q, eps_q)
    sigma[rows] = np.where((code == 3)[:, None], p[:, None] * _E,
                           np.array(_double_values(*kern, p, c, inv.j2[rows], inv.j3[rows])).T)
    tan[rows] = _coincident_tangent(*kern, *(tuple(x[rows] for x in g) for g in (gp, gq)), c)
    return sigma, tan, ok


def linear_elastic_map(bulk: float, shear: float) -> InvariantReturnMap:
    """p = K eps_v, q = 3 G eps_q, theta_sigma = theta_eps: the invariant form
    of isotropic linear elasticity."""
    if not all(isinstance(x, Real) and math.isfinite(x) and x > 0.0 for x in (bulk, shear)):
        raise ContractError(f"elastic moduli must be finite and positive, got {(bulk, shear)!r}")
    return _radial_return(bulk, shear, math.inf)


def vonmises_demo_map(bulk: float, shear: float, yield_q: float) -> InvariantReturnMap:
    """Radial-return von Mises map: elastic below q_y, q capped at q_y above.
    At the yield tie 3 G eps_q == q_y the plastic branch wins."""
    params = (bulk, shear, yield_q)
    if not all(isinstance(x, Real) and math.isfinite(x) and x > 0.0 for x in params):
        raise ContractError("demo map parameters (bulk, shear, yield_q) must be finite and "
                            f"positive, got {params!r}")
    return _radial_return(bulk, shear, yield_q)


def _radial_return(bulk: float, shear: float, yield_q: float) -> InvariantReturnMap:
    """The map of vonmises_demo_map, and with yield_q = inf that of
    linear_elastic_map: min(3 G eps_q, inf) is 3 G eps_q, and grad_q takes
    the plastic branch only where q is inf, which every caller refuses."""
    return InvariantReturnMap(
        p=lambda ev, eq, th: bulk * ev,
        q=lambda ev, eq, th: min(3.0 * shear * eq, yield_q),
        theta_sigma=lambda ev, eq, th: th,
        grad_p=lambda ev, eq, th: (bulk, 0.0, 0.0),
        grad_q=lambda ev, eq, th: ((0.0, 0.0, 0.0) if 3.0 * shear * eq >= yield_q
                                   else (0.0, 3.0 * shear, 0.0)),
        grad_theta_sigma=lambda ev, eq, th: (0.0, 0.0, 1.0),
    )
