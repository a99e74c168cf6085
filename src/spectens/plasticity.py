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
from typing import Callable

import numpy as np

from .errors import ContractError
from .spectral import (
    MultTag,
    Spectrum,
    _I,
    _anchored,
    _spin_sum,
    _spin_sum_rows,
    spectrum,
)
from .tensor_core import (
    COS3THETA_FLOOR,
    IDENTITY2,
    IXI,
    InvariantSet,
    SymTensor2,
    SymTensor4,
    _E,
    _IDEV,
    _ROW_MATH,
    _as_vec,
    _dtheta,
    _dtheta_of_dev,
    _iso4,
    _lift,
    _outer,
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
    parallel to the strain's.  The double-branch tangent also takes
    d(theta_sigma)/d(theta_eps) = 1 there."""

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
    Double/Triple: theta carries no information, so the stress deviator is
    taken parallel to the strain deviator and theta_sigma is not consulted.
    """
    sp = spectrum(eps_star)
    return _stress(eps_star, sp, _map_at(sp, rm), sp.mult.tag)


def consistent_tangent(eps_star: SymTensor2, rm: InvariantReturnMap) -> SymTensor4:
    """Exact d(sigma)/d(eps_star) of reconstruct_stress at eps_star.

    On the Double and Triple branches the theta partials of the map are
    ignored by construction: there the reconstruction never consults
    theta_sigma, and in-pair perturbations are carried by the q/eps_q and
    identity terms.
    """
    sp = spectrum(eps_star)
    return _tangent(eps_star, sp, rm, _map_at(sp, rm))


def stress_and_tangent(eps_star: SymTensor2,
                       rm: InvariantReturnMap) -> tuple[SymTensor2, SymTensor4]:
    """(reconstruct_stress, consistent_tangent) at eps_star from one spectral
    decomposition of the predictor and one evaluation of the map."""
    sp = spectrum(eps_star)
    mv = _map_at(sp, rm)
    return _stress(eps_star, sp, mv, sp.mult.tag), _tangent(eps_star, sp, rm, mv)


_SHIFTS = (2.0 * math.pi / 3.0, 0.0, -2.0 * math.pi / 3.0)


def _map_at(sp: Spectrum, rm: InvariantReturnMap):
    """The map at the predictor of sp, for the stress and its tangent:
    (args, p, q, theta_sigma, principal stresses).  The triple branch
    evaluates only p, at args = (eps_v, 0, 0); only the distinct branch
    consults theta_sigma and forms the principal stresses."""
    args = _predictor_args(sp.inv, math)
    if sp.mult.tag is MultTag.TRIPLE:
        args = (args[0], 0.0, 0.0)
        return args, rm.p(*args), None, None, None
    p = rm.p(*args)
    q = rm.q(*args)
    if q < 0.0:
        raise ContractError(f"return map produced q = {q!r} < 0 at {args!r}")
    if sp.mult.tag is not MultTag.DISTINCT:
        return args, p, q, None, None
    th = rm.theta_sigma(*args)
    return args, p, q, th, _principal(p, q, th, math)


def _principal(p, q, th, m) -> list:
    """Principal stresses p + (2/3) q sin(theta_sigma + shift_i); floats or
    (n,) arrays, with sin from m."""
    f = (2.0 / 3.0) * q
    return [p + f * m.sin(th + _SHIFTS[0]), p + f * m.sin(th + _SHIFTS[1]),
            p + f * m.sin(th + _SHIFTS[2])]


def _stress(eps_star: SymTensor2, sp: Spectrum, mv, tag: MultTag) -> SymTensor2:
    """reconstruct_stress on the branch tag from the map values mv of _map_at
    (of which the triple and double branches read the first three); floats
    or (n,) arrays."""
    if tag is MultTag.DISTINCT:
        return _anchored(mv[4], sp.bases[0], sp.bases[2])
    args, p, q = mv[:3]
    if tag is MultTag.TRIPLE:
        return p * IDENTITY2
    return p * IDENTITY2 + (2.0 * q / (3.0 * args[1])) * deviator(eps_star)


def _tangent(eps_star: SymTensor2, sp: Spectrum, rm: InvariantReturnMap,
             mv) -> SymTensor4:
    args, _, q, th, sig = mv
    gp = rm.grad_p(*args)
    gq = rm.grad_q(*args)
    if sp.mult.tag is not MultTag.DISTINCT:
        return SymTensor4(_coincident_tangent(eps_star, sp.mult.tag, args[1], q, gp, gq))
    f = 2.0 / (3.0 * args[1])
    gth = rm.grad_theta_sigma(*args)
    s = deviator(eps_star).as_tuple()
    # Rows: gradients of the predictor invariants (eps_v, eps_q, theta_eps).
    grads = (*_I, *[f * x for x in s], *_dtheta_of_dev(s, sp.inv))
    m = _spin_sum(eps_star, sp, (sig[0] - sig[1], 0.0, sig[2] - sig[1]),
                  tail=(grads, _dsigma(gp, gq, gth, q, th, math)))
    return SymTensor4._of(m)


def _coincident_tangent(eps_star: SymTensor2, tag: MultTag, eps_q, q, gp, gq) -> np.ndarray:
    """Stored array of consistent_tangent on the triple or double branch tag,
    from the map's gradients gp and gq; floats or (n,) arrays (then a stack
    of arrays)."""
    if tag is MultTag.TRIPLE:
        return _iso4(gp[0], (2.0 / 3.0) * gq[1])
    f = 2.0 / (3.0 * eps_q)
    e = _as_vec(deviator(eps_star))
    return (_lift(gp[0], 2) * IXI.m
            + _lift(f, 2) * (_lift(gp[1], 2) * _outer(_E, e)
                             + _lift(gq[0], 2) * _outer(e, _E)
                             + _lift(f * (gq[1] - q / eps_q), 2) * _outer(e, e)
                             + _lift(q, 2) * _IDEV))


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


# Either double tag: the formulas of the double branch do not depend on
# which pair is repeated.
_DOUBLE = MultTag.DOUBLE_HIGH_UNIQUE


def _stress_tangent_rows(eps_star: SymTensor2, sp: Spectrum, rm: InvariantReturnMap,
                         ok: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """stress_and_tangent on the rows of eps_star and sp where ok, whose
    entries are (n,) arrays and whose mult holds the class codes of
    _spectrum_rows: (sigma as (n, 6), tangent as (n, 6, 6), ok less the
    rows on which stress_and_tangent would raise).  The map is called only
    on rows that are still ok, and only where _map_at and _tangent call it;
    a row on which it raises an ArithmeticError is NaN."""
    inv, code = sp.inv, sp.mult
    dist, triple = code == 0, code == 3
    eps_v, eps_q, theta = _predictor_args(inv, _ROW_MATH)
    # _map_at evaluates the triple branch at (eps_v, 0, 0).
    args = (eps_v, np.where(triple, 0.0, eps_q), np.where(triple, 0.0, theta))
    p = _per_row(rm.p, ok, args)
    q = _per_row(rm.q, ok & ~triple, args)
    ok = ok & ~(q < 0.0)
    th = _per_row(rm.theta_sigma, ok & dist, args)
    sig = _principal(p, q, th, _ROW_MATH)
    gp, gq = (tuple(_per_row(g, ok, args, 3).T) for g in (rm.grad_p, rm.grad_q))
    gth = tuple(_per_row(rm.grad_theta_sigma, ok & dist, args, 3).T)
    # The guard of dtheta_dT, which only the distinct branch calls; theta is
    # defined on every distinct row.
    cos3t = _ROW_MATH.cos(3.0 * inv.theta)
    ok &= ~dist | ~(abs(cos3t) <= COS3THETA_FLOOR)
    f = 2.0 / (3.0 * eps_q)
    s = deviator(eps_star).as_tuple()
    grads = np.stack([np.broadcast_to(_E, (len(f), 6)),
                      np.stack([f * x for x in s], -1),
                      np.stack(_dtheta(s, inv.j2, inv.theta, cos3t, _ROW_MATH), -1)], 1)
    coeff = np.array(_dsigma(gp, gq, gth, q, th, _ROW_MATH)).transpose(2, 0, 1)
    tan = _spin_sum_rows(eps_star, sp, (sig[0] - sig[1], 0.0, sig[2] - sig[1]),
                         tail=coeff @ grads)
    sigma = _as_vec(_anchored(sig, sp.bases[0], sp.bases[2]))
    # The double and triple rows.
    rows = np.flatnonzero(code)
    triple = code[rows] == 3
    eps_c = SymTensor2(*(x[rows] for x in eps_star.as_tuple()))
    args, p, q = tuple(a[rows] for a in args), p[rows], q[rows]
    gp, gq = (tuple(x[rows] for x in g) for g in (gp, gq))
    sigma[rows] = np.where(_lift(triple, 1), *(_as_vec(_stress(eps_c, sp, (args, p, q), tag))
                                               for tag in (MultTag.TRIPLE, _DOUBLE)))
    tan[rows] = np.where(_lift(triple, 2), *(_coincident_tangent(eps_c, tag, args[1], q, gp, gq)
                                             for tag in (MultTag.TRIPLE, _DOUBLE)))
    return sigma, tan, ok


def linear_elastic_map(bulk: float, shear: float) -> InvariantReturnMap:
    """p = K eps_v, q = 3 G eps_q, theta_sigma = theta_eps: the invariant form
    of isotropic linear elasticity."""
    if not all(math.isfinite(x) and x > 0.0 for x in (bulk, shear)):
        raise ContractError(f"elastic moduli must be finite and positive, got {(bulk, shear)!r}")
    return InvariantReturnMap(
        p=lambda ev, eq, th: bulk * ev,
        q=lambda ev, eq, th: 3.0 * shear * eq,
        theta_sigma=lambda ev, eq, th: th,
        grad_p=lambda ev, eq, th: (bulk, 0.0, 0.0),
        grad_q=lambda ev, eq, th: (0.0, 3.0 * shear, 0.0),
        grad_theta_sigma=lambda ev, eq, th: (0.0, 0.0, 1.0),
    )


def vonmises_demo_map(bulk: float, shear: float, yield_q: float) -> InvariantReturnMap:
    """Radial-return von Mises map: elastic below q_y, q capped at q_y above.
    At the yield tie 3 G eps_q == q_y the plastic branch wins."""
    if not all(math.isfinite(x) and x > 0.0 for x in (bulk, shear, yield_q)):
        raise ContractError("demo map parameters (bulk, shear, yield_q) must be finite and "
                            f"positive, got {(bulk, shear, yield_q)!r}")

    def q_fn(ev, eq, th):
        return min(3.0 * shear * eq, yield_q)

    def grad_q_fn(ev, eq, th):
        if 3.0 * shear * eq >= yield_q:
            return (0.0, 0.0, 0.0)
        return (0.0, 3.0 * shear, 0.0)

    return InvariantReturnMap(
        p=lambda ev, eq, th: bulk * ev,
        q=q_fn,
        theta_sigma=lambda ev, eq, th: th,
        grad_p=lambda ev, eq, th: (bulk, 0.0, 0.0),
        grad_q=grad_q_fn,
        grad_theta_sigma=lambda ev, eq, th: (0.0, 0.0, 1.0),
    )
