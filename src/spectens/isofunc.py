"""Isotropic tensor functions S = sum eta(lam_i) N_i with exact tangents
dS/dT in all three eigenvalue-multiplicity regimes."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import MapDomainError
from .spectral import (
    MultTag,
    Spectrum,
    _anchored,
    _coincident_tangent,
    _double_values,
    _spin_sum,
    spectrum,
)
from .tensor_core import (
    IDENTITY2,
    SymTensor2,
    SymTensor4,
    _E,
    _as_vec,
    _called,
    _per_row,
    deviator,
)


@dataclass(frozen=True, slots=True)
class ScalarEigenMap:
    """Scalar eigenvalue map eta with derivative, acting separately on each
    eigenvalue.  domain is an open interval; evaluators must be pure."""

    eval: Callable[[float], float]
    deriv: Callable[[float], float]
    domain: tuple[float, float] = (-math.inf, math.inf)

    def contains(self, lam):
        """Whether lam, a float or an (n,) array, lies in the domain."""
        return (self.domain[0] < lam) & (lam < self.domain[1])


def half_log_map() -> ScalarEigenMap:
    """eta = ln(lam)/2, the logarithmic-strain kernel; domain lam > 0."""
    return ScalarEigenMap(lambda x: 0.5 * math.log(x), lambda x: 0.5 / x, (0.0, math.inf))


def square_map() -> ScalarEigenMap:
    return ScalarEigenMap(lambda x: x * x, lambda x: 2.0 * x)


def cube_map() -> ScalarEigenMap:
    return ScalarEigenMap(lambda x: x * x * x, lambda x: 3.0 * x * x)


def double_exp_map() -> ScalarEigenMap:
    """eta = exp(2 lam), the inverse of the logarithmic-strain kernel."""
    return ScalarEigenMap(lambda x: math.exp(2.0 * x), lambda x: 2.0 * math.exp(2.0 * x))


def _coincident(i1t, qt, s) -> tuple:
    """The coincident eigenvalues lam_hat = (I1T - 2 s qT)/3 (lone) and
    lam_rep = (I1T + s qT)/3 (repeated), s the theta sign; with qT = 0 this
    is the triple point.  Floats or (n,) arrays."""
    return (i1t - 2.0 * s * qt) / 3.0, (i1t + s * qt) / 3.0


def _map_values(e, d, s) -> tuple:
    """(p, q, grad_p, grad_q, eta'(lam_rep)) of S from the values e and slopes
    d of the map at (lam_hat, lam_rep) of _coincident, with the gradients by
    the chain rule in plasticity's (eps_v, eps_q) = (I1T, 2 qT/3): the
    degenerate branches are a return map, as theta carries no information
    there.  Floats or (n,) arrays."""
    (e_hat, e_rep), (d_hat, d_rep) = e, d
    cross = s * (d_rep - d_hat) / 3.0
    return ((e_hat + 2.0 * e_rep) / 3.0, s * (e_rep - e_hat),
            ((d_hat + 2.0 * d_rep) / 9.0, cross), (cross, (d_rep + 2.0 * d_hat) / 2.0), d_rep)


def _eta(f: ScalarEigenMap, lams) -> tuple[list, list]:
    """(values, slopes) of f at the eigenvalues lams, as _called reads them,
    or MapDomainError if one lies outside the domain of f or _called refuses
    a value or slope there."""
    e, d = [], []
    for lam in lams:
        if not f.contains(lam):
            raise MapDomainError(f"eigenvalue {lam!r} outside map domain {f.domain}")
        e.append(_called(f.eval, (lam,), (), MapDomainError, "map", "eigenvalue {0!r}"))
        d.append(_called(f.deriv, (lam,), (), MapDomainError, "map slope", "eigenvalue {0!r}"))
    return e, d


def _eta_rows(f: ScalarEigenMap, lams, ok: np.ndarray) -> tuple[list, list, np.ndarray]:
    """_eta on the rows where ok of the (n,) arrays lams: (values, slopes,
    ok less the rows on which _eta would raise).  f is called only on rows
    that are still ok."""
    e, d = [], []
    for lam in lams:
        val, ok = _per_row(f.eval, ok & f.contains(lam), (lam,))
        slope, ok = _per_row(f.deriv, ok, (lam,))
        e.append(val)
        d.append(slope)
    return e, d, ok


@np.errstate(all="ignore")
def _apply_rows(t: SymTensor2, sp: Spectrum, f: ScalarEigenMap,
                ok: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_apply on the rows of t and sp where ok, whose entries are (n,) arrays
    and whose mult holds the class codes of _spectrum_rows: (S as (n, 6),
    dS/dT as (n, 6, 6), ok less the rows on which _apply would raise).  f is
    called only on rows that are still ok."""
    code, inv = sp.mult, sp.inv
    e, d, ok_all = _eta_rows(f, sp.lam, ok & (code == 0))
    s_all = _as_vec(_anchored(e, sp.bases[0], sp.bases[2]))
    m_all = _spin_sum(t, sp, (e[0] - e[1], 0.0, e[2] - e[1]), d)
    # The double and triple rows, with the arguments _apply gives _coincident
    # on each.
    rows = np.flatnonzero(code)
    code, i1, j2 = code[rows], inv.i1[rows], inv.j2[rows]
    triple = code == 3
    sign = np.where(code == 1, -1.0, 1.0)
    qt = np.where(triple, 0.0, np.sqrt(3.0 * j2))
    lam_hat, lam_rep = _coincident(i1, qt, sign)
    (e_hat,), (d_hat,), ok_hat = _eta_rows(f, (lam_hat,), ok[rows])
    # On a triple row the two coincide: f is called once.
    (e_rep,), (d_rep,), ok_rep = _eta_rows(f, (lam_rep,), ok_hat & ~triple)
    ok_all[rows] = ok_rep | ok_hat & triple
    p, q, gp, gq, slope = _map_values((e_hat, np.where(triple, e_hat, e_rep)),
                                      (d_hat, np.where(triple, d_hat, d_rep)), sign)
    dv = deviator(SymTensor2(*(x[rows] for x in t.as_tuple()))).as_tuple()
    args = (dv, 2.0 * qt / 3.0, sign, q)
    c = slope - q / qt
    s_all[rows] = np.where(triple[:, None], p[:, None] * _E,
                           np.array(_double_values(*args, p, c, j2, inv.j3[rows])).T)
    m_all[rows] = _coincident_tangent(*args, gp, gq, c)
    return s_all, m_all, ok_all


def isotropic_function(t: SymTensor2, f: ScalarEigenMap) -> tuple[SymTensor2, SymTensor4]:
    """Classify t, then evaluate S and its exact tangent on the right branch."""
    return _apply(t, spectrum(t), f)


def _apply(t: SymTensor2, sp: Spectrum,
           f: ScalarEigenMap) -> tuple[SymTensor2, SymTensor4]:
    """isotropic_function on the spectrum sp of t, already computed.

    On the distinct branch the assembly is anchored at the middle eigenvalue:
    sum(N_i) = I and sum(dN_i/dT) = 0 hold exactly, so only eigenvalue
    *differences* multiply the two bases and spins whose conditioning
    degrades near coincidence.
    """
    tag = sp.mult.tag
    if tag is MultTag.DISTINCT:
        e, d = _eta(f, sp.lam)
        return (_anchored(e, sp.bases[0], sp.bases[2]),
                SymTensor4._of(_spin_sum(t, sp, (e[0] - e[1], 0.0, e[2] - e[1]), d)))
    if tag is MultTag.TRIPLE:
        # lam_hat is lam_rep at the triple point: f is called once.
        (e,), (d,) = _eta(f, _coincident(sp.inv.i1, 0.0, 1.0)[:1])
        p, q, gp, gq, _ = _map_values((e, e), (d, d), 1.0)
        return p * IDENTITY2, SymTensor4._of(_coincident_tangent(None, 0.0, 1.0, q, gp, gq, 0.0))
    sign = float(sp.mult.theta_sign)
    qt = math.sqrt(3.0 * sp.inv.j2)
    p, q, gp, gq, slope = _map_values(*_eta(f, _coincident(sp.inv.i1, qt, sign)), sign)
    args = (deviator(t).as_tuple(), 2.0 * qt / 3.0, sign, q)
    c = slope - q / qt
    return (SymTensor2(*_double_values(*args, p, c, sp.inv.j2, sp.inv.j3)),
            SymTensor4._of(_coincident_tangent(*args, gp, gq, c)))
