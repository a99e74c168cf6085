"""Closed-form eigenvalues, multiplicity classification, eigenbases, spins."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BranchError, ContractError, DegeneracyError
from .tensor_core import (
    IDENTITY2,
    IDENTITY4,
    IXI,
    TAU_ABS,
    TAU_GAP,
    TAU_REL,
    InvariantSet,
    SymTensor2,
    SymTensor4,
    _D2,
    _invariants,
    _sym_square,
    deviator,
    norm,
)

_TWO_THIRDS_PI = 2.0 * math.pi / 3.0
_EPS = 2.220446049250313e-16


class MultTag(Enum):
    DISTINCT = "distinct"
    DOUBLE_HIGH_UNIQUE = "double_high_unique"
    DOUBLE_LOW_UNIQUE = "double_low_unique"
    TRIPLE = "triple"


@dataclass(frozen=True, slots=True)
class Multiplicity:
    """Eigenvalue coincidence pattern, decided purely from gaps.

    unique_index is the position of the non-repeated eigenvalue in the
    descending triple: 0 when the low pair is repeated, 2 when the high
    pair is repeated, None otherwise.
    """

    tag: MultTag
    unique_index: int | None = None

    @property
    def theta_sign(self) -> int:
        """+1 on the theta = +pi/6 branch (repeated high pair, lone low
        eigenvalue), -1 on theta = -pi/6 (repeated low pair, lone high)."""
        if self.tag is MultTag.DOUBLE_HIGH_UNIQUE:
            return -1
        if self.tag is MultTag.DOUBLE_LOW_UNIQUE:
            return 1
        raise BranchError("theta sign is defined only for double coincidence")


@dataclass(frozen=True, slots=True)
class ClassifyTols:
    """Coincidence thresholds: triple when the full spread falls below
    tau_abs + tau_rel*scale, double when one gap falls below tau_gap times
    the spread."""

    tau_abs: float = TAU_ABS
    tau_rel: float = TAU_REL
    tau_gap: float = TAU_GAP


DEFAULT_TOLS = ClassifyTols()


@dataclass(frozen=True, slots=True)
class Spectrum:
    """Ordered eigenvalues, their angles, classification, and eigenbases."""

    lam: tuple[float, float, float]
    beta: tuple[float, float, float]
    mult: Multiplicity
    bases: tuple[SymTensor2, SymTensor2, SymTensor2]
    inv: InvariantSet


def eigenvalues(inv: InvariantSet) -> tuple[float, float, float]:
    """Closed-form eigenvalues lam_i = I1/3 + (2/sqrt(3)) sqrt(J2) sin(beta_i),
    descending.

    Descending order is a theorem for theta in [-pi/6, pi/6]; roundoff can
    invert an exact tie by one ulp, which the final clamp repairs.
    """
    r = 2.0 / math.sqrt(3.0) * math.sqrt(inv.j2)
    third = inv.i1 / 3.0
    l1 = third + r * math.sin(inv.theta + _TWO_THIRDS_PI)
    l2 = third + r * math.sin(inv.theta)
    l3 = third + r * math.sin(inv.theta - _TWO_THIRDS_PI)
    slack = 1e-12 * (abs(l1) + abs(l2) + abs(l3)) + 1e-300
    if not (l1 - l2 >= -slack and l2 - l3 >= -slack):
        raise DegeneracyError(
            f"closed-form eigenvalues {(l1, l2, l3)!r} are out of order or not "
            f"finite (J2 = {inv.j2!r}, theta = {inv.theta!r})")
    l2 = min(l2, l1)
    l3 = min(l3, l2)
    return (l1, l2, l3)


_TRIPLE = Multiplicity(MultTag.TRIPLE)
_DOUBLE_HIGH_UNIQUE = Multiplicity(MultTag.DOUBLE_HIGH_UNIQUE, 0)
_DOUBLE_LOW_UNIQUE = Multiplicity(MultTag.DOUBLE_LOW_UNIQUE, 2)
_DISTINCT = Multiplicity(MultTag.DISTINCT)


def classify(lam: tuple[float, float, float], scale: float,
             tols: ClassifyTols = DEFAULT_TOLS) -> Multiplicity:
    """Multiplicity from eigenvalue gaps; scale is the source tensor norm.
    The result is one of four shared instances."""
    l1, l2, l3 = lam
    spread = l1 - l3
    if spread <= tols.tau_abs + tols.tau_rel * scale:
        return _TRIPLE
    if l2 - l3 <= tols.tau_gap * spread:
        return _DOUBLE_HIGH_UNIQUE
    if l1 - l2 <= tols.tau_gap * spread:
        return _DOUBLE_LOW_UNIQUE
    return _DISTINCT


def _distinct_basis(s: tuple, ssq: tuple, j2: float, li: float) -> SymTensor2:
    """Basis from the deviatoric numerator (s.s + li s + (li^2 - J2) I) / (3 li^2 - J2)
    with s and ssq the components of the deviator and of its square, and li
    the deviatoric eigenvalue lam_i - I1/3.

    Algebraically identical to the adjugate form lam_i((lam_i - I1) I + T) + adj(T)
    over the same denominator J2 (4 sin^2(beta_i) - 1), but free of the
    volumetric cancellation that form suffers near coincident eigenvalues.
    """
    den = 3.0 * li * li - j2
    if abs(den) <= 16.0 * _EPS * (j2 + 3.0 * li * li):
        raise BranchError("eigenbasis denominator vanished: repeated eigenvalue")
    c = li * li - j2
    return SymTensor2(
        (ssq[0] + li * s[0] + c) / den,
        (ssq[1] + li * s[1] + c) / den,
        (ssq[2] + li * s[2] + c) / den,
        (ssq[3] + li * s[3]) / den,
        (ssq[4] + li * s[4]) / den,
        (ssq[5] + li * s[5]) / den,
    )


def eigenbasis_distinct(t: SymTensor2, inv: InvariantSet, i: int,
                        lambda_i: float, beta_i: float) -> SymTensor2:
    """Eigenbasis N_i for a simple eigenvalue of a tensor with distinct spectrum."""
    if i not in (0, 1, 2):
        raise BranchError(f"eigenvalue index must be 0, 1 or 2, got {i}")
    li = lambda_i - inv.i1 / 3.0
    # beta_i and lambda_i must describe the same eigenvalue: the denominator
    # J2 (4 sin^2(beta_i) - 1) then equals 3 li^2 - J2.
    if not (abs(inv.j2 * (4.0 * math.sin(beta_i) ** 2 - 1.0) - (3.0 * li * li - inv.j2))
            <= 1e-6 * (inv.j2 + 3.0 * li * li) + 1e-300):
        raise ContractError(
            f"lambda_i = {lambda_i!r} and beta_i = {beta_i!r} do not describe "
            "the same eigenvalue")
    s = deviator(t).as_tuple()
    return _distinct_basis(s, _sym_square(s), inv.j2, li)


def eigenbasis_double(t: SymTensor2, inv: InvariantSet,
                      tols: ClassifyTols = DEFAULT_TOLS) -> tuple[SymTensor2, SymTensor2]:
    """(N_hat, N_rep) for a double coincidence: the basis of the lone
    eigenvalue and the shared basis of the repeated pair.

    The deviatoric part of N_hat is -sign * dev(t)/q with q = sqrt(3 J2) and
    the sign taken from the classified branch, never from floating theta.
    """
    mult = classify(eigenvalues(inv), norm(t), tols)
    if mult is _TRIPLE:
        raise BranchError("triple coincidence has no distinguished basis")
    if mult is _DISTINCT:
        raise BranchError("eigenvalues are distinct; use the simple-eigenvalue basis")
    return _double_bases(deviator(t).as_tuple(), inv.j2, mult)


def _double_bases(s: tuple, j2: float,
                  mult: Multiplicity) -> tuple[SymTensor2, SymTensor2]:
    """eigenbasis_double from the deviator components s, for a multiplicity
    already classified as double."""
    f = -float(mult.theta_sign) / math.sqrt(3.0 * j2)
    third = 1.0 / 3.0
    hxx, hyy, hzz = third + f * s[0], third + f * s[1], third + f * s[2]
    hxy, hxz, hyz = f * s[3], f * s[4], f * s[5]
    return (SymTensor2(hxx, hyy, hzz, hxy, hxz, hyz),
            SymTensor2(0.5 * (1.0 - hxx), 0.5 * (1.0 - hyy), 0.5 * (1.0 - hzz),
                       -0.5 * hxy, -0.5 * hxz, -0.5 * hyz))


_THIRD_I = SymTensor2(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0, 0.0, 0.0, 0.0)


def spectrum(t: SymTensor2, tols: ClassifyTols = DEFAULT_TOLS) -> Spectrum:
    """Full spectral decomposition with branch dispatch, in one pass: the
    invariants, the deviator and the norm come from one evaluation, and
    only the bases, the invariants and the Spectrum itself are built."""
    inv, s, nrm = _invariants(t)
    lam = eigenvalues(inv)
    mult = classify(lam, nrm, tols)
    beta = (inv.theta + _TWO_THIRDS_PI, inv.theta, inv.theta - _TWO_THIRDS_PI)
    if mult is _DISTINCT:
        ssq = _sym_square(s)
        third = inv.i1 / 3.0
        bases = (_distinct_basis(s, ssq, inv.j2, lam[0] - third),
                 _distinct_basis(s, ssq, inv.j2, lam[1] - third),
                 _distinct_basis(s, ssq, inv.j2, lam[2] - third))
    elif mult is _TRIPLE:
        bases = (_THIRD_I, _THIRD_I, _THIRD_I)
    else:
        n_hat, n_rep = _double_bases(s, inv.j2, mult)
        if mult.unique_index == 0:
            bases = (n_hat, n_rep, n_rep)
        else:
            bases = (n_rep, n_rep, n_hat)
    return Spectrum(lam, beta, mult, bases, inv)


# Rows 0-5: d2_I3 of the unit tensors; row 6: I4 - I x I.
_SPIN_TABLE = np.vstack((_D2, (IDENTITY4.m - IXI.m).ravel()))


def _spin_sum(t: SymTensor2, sp: Spectrum, c, d=(0.0, 0.0, 0.0), tail=None) -> np.ndarray:
    """Stored array of sum_i c[i] spin(t, sp, i) + sum_i d[i] N_i x N_i, plus
    sum_i N_i x tail[i] when a (3, 6) array tail is given.

    With a_i = c[i] / (J2 (4 sin^2(beta_i) - 1)) and w_i the w of spin, the
    dyads on N_i are X^T Y + (X^T Y)^T over rows X_i = N_i and
    Y_i = a_i w_i + d[i] N_i / 2,
    and the rest is (sum a_i lam_i)(I4 - I x I) + (sum a_i) d2_I3(T), one
    product with a constant table.  Half of that rest is added before the
    transpose is, so that the array is exactly symmetric without the tail.
    An eigenvalue of weight 0 is skipped: its denominator may vanish.
    """
    j2, i1 = sp.inv.j2, sp.inv.i1
    root = 2.0 * math.sqrt(3.0 * j2)
    # Row i: coefficients of Y_i on N_0, N_1, N_2, I and T.
    coef = [[0.0] * 5 for _ in range(3)]
    sum_a = sum_al = 0.0
    for i in range(3):
        coef[i][i] = 0.5 * d[i]
        if c[i]:
            sb = math.sin(sp.beta[i])
            a = c[i] / (j2 * (4.0 * sb * sb - 1.0))
            coef[i][i] -= a * root * sb
            coef[i][3] = a * (2.0 * sp.lam[i] - i1)
            coef[i][4] = a
            sum_a += a
            sum_al += a * sp.lam[i]
    tv = t.as_tuple()
    rows = np.array((*(n.as_tuple() for n in sp.bases), IDENTITY2.as_tuple(), tv))
    nv = rows[:3]
    half = 0.5 * sum_a
    rest = np.array([half * x for x in tv] + [0.5 * sum_al]) @ _SPIN_TABLE
    q = nv.T @ (np.array(coef) @ rows) + rest.reshape(6, 6)
    if tail is None:
        return q + q.T
    return q + q.T + nv.T @ tail


def spin(t: SymTensor2, sp: Spectrum, i: int) -> SymTensor4:
    """Derivative dN_i/dT of the eigenbasis of a simple eigenvalue.

    Defined for every index in the distinct case and only for the lone
    eigenvalue in the double case; never for a repeated eigenvalue.

    dN_i/dT = (N_i x w + w x N_i + lam_i (I4 - I x I) + d2_I3(T))
    / (J2 (4 sin^2(beta_i) - 1)) with w = -2 sqrt(3 J2) sin(beta_i) N_i
    + (2 lam_i - I1) I + T.  The stored entry at row (ab), column (cd) is
    N_ab w_cd + w_ab N_cd + lam_i ((I_ac I_bd + I_ad I_bc)/2 - I_ab I_cd)
    + d2_I3(T)[ab, cd] over that denominator: plain component products,
    with the shear doubled by apply().
    """
    if i not in (0, 1, 2):
        raise BranchError(f"eigenvalue index must be 0, 1 or 2, got {i}")
    mult = sp.mult
    if mult.tag is MultTag.TRIPLE:
        raise DegeneracyError("spin undefined: every eigenvalue is repeated")
    if mult.tag is not MultTag.DISTINCT and i != mult.unique_index:
        raise DegeneracyError("spin undefined for a repeated eigenvalue")
    return SymTensor4(_spin_sum(t, sp, [float(k == i) for k in range(3)]))
