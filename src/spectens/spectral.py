"""Closed-form eigenvalues, multiplicity classification, eigenbases, spins, tangent kernels."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BranchError, DegeneracyError
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
    _ROW_MATH,
    _SYM,
    _invariant_rows,
    _invariants,
    _refuse_invariant_set,
    _refuse_nonfinite,
    _sym_square,
)

_TWO_THIRDS_PI = 2.0 * math.pi / 3.0
_TWO_OVER_SQRT3 = 2.0 / math.sqrt(3.0)
_EPS = 2.220446049250313e-16


class MultTag(Enum):
    DISTINCT = "distinct"
    DOUBLE_HIGH_UNIQUE = "double_high_unique"
    DOUBLE_LOW_UNIQUE = "double_low_unique"
    TRIPLE = "triple"


@dataclass(frozen=True, slots=True)
class Multiplicity:
    """Eigenvalue coincidence pattern, decided from gaps and the theta floor.

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


@dataclass(frozen=True, slots=True, init=False)
class Spectrum:
    """Ordered eigenvalues, classification, eigenbases, and invariants."""

    lam: tuple[float, float, float]
    mult: Multiplicity
    bases: tuple[SymTensor2, SymTensor2, SymTensor2]
    inv: InvariantSet

    def __init__(self, lam: tuple[float, float, float], mult: Multiplicity,
                 bases: tuple[SymTensor2, SymTensor2, SymTensor2], inv: InvariantSet):
        # The slot descriptors, as in SymTensor2.
        _SET_LAM(self, lam)
        _SET_MULT(self, mult)
        _SET_BASES(self, bases)
        _SET_INV(self, inv)


_SET_LAM, _SET_MULT, _SET_BASES, _SET_INV = (
    getattr(Spectrum, f).__set__ for f in ("lam", "mult", "bases", "inv"))


def eigenvalues(inv: InvariantSet) -> tuple[float, float, float]:
    """Closed-form eigenvalues lam_i = I1/3 + (2/sqrt(3)) sqrt(J2) sin(beta_i),
    descending, with beta_i = theta + 2 pi/3, theta, theta - 2 pi/3.

    Descending order is a theorem for theta in [-pi/6, pi/6]; roundoff can
    invert an exact tie by one ulp, which the final clamp repairs.
    ContractError names a negative J2 or an infinite theta: no tensor has it.
    """
    try:
        l1, l2, l3, in_order = _eigen_terms(inv.i1 / 3.0, _TWO_OVER_SQRT3 * math.sqrt(inv.j2),
                                            inv.theta, math)
    except ValueError:
        _refuse_invariant_set(inv)
        raise
    if not in_order:
        raise DegeneracyError(
            f"closed-form eigenvalues {(l1, l2, l3)!r} are out of order or not "
            f"finite (J2 = {inv.j2!r}, theta = {inv.theta!r})")
    l2 = min(l2, l1)
    l3 = min(l3, l2)
    return (l1, l2, l3)


def _eigen_terms(mean, r, theta, m) -> tuple:
    """The values mean + r sin(theta + 2 pi/3), mean + r sin(theta) and
    mean + r sin(theta - 2 pi/3) before the clamp of eigenvalues, and whether
    they are in order (not if one is not finite): the eigenvalues at
    mean = I1/3 and r = (2/sqrt(3)) sqrt(J2), the principal stresses at p and
    (2/3) q.  Floats or (n,) arrays, with sin from m."""
    l1 = mean + r * m.sin(theta + _TWO_THIRDS_PI)
    l2 = mean + r * m.sin(theta)
    l3 = mean + r * m.sin(theta - _TWO_THIRDS_PI)
    slack = 1e-12 * (abs(l1) + abs(l2) + abs(l3)) + 1e-300
    return l1, l2, l3, (l1 - l2 >= -slack) & (l2 - l3 >= -slack)


_TRIPLE = Multiplicity(MultTag.TRIPLE)
_DOUBLE_HIGH_UNIQUE = Multiplicity(MultTag.DOUBLE_HIGH_UNIQUE, 0)
_DOUBLE_LOW_UNIQUE = Multiplicity(MultTag.DOUBLE_LOW_UNIQUE, 2)
_DISTINCT = Multiplicity(MultTag.DISTINCT)
# The multiplicities in the order of the class codes of _spectrum_rows.
_MULTS = (_DISTINCT, _DOUBLE_HIGH_UNIQUE, _DOUBLE_LOW_UNIQUE, _TRIPLE)


def classify(lam: tuple[float, float, float], scale: float) -> Multiplicity:
    """Multiplicity from eigenvalue gaps; scale is the source tensor norm.
    The result is one of four shared instances."""
    triple, high_unique, low_unique = _coincidences(lam, scale)
    if triple:
        return _TRIPLE
    if high_unique:
        return _DOUBLE_HIGH_UNIQUE
    if low_unique:
        return _DOUBLE_LOW_UNIQUE
    return _DISTINCT


def _coincidences(lam, scale) -> tuple:
    """The three tests of classify, in its order; floats or (n,) arrays."""
    l1, l2, l3 = lam
    spread = l1 - l3
    return (spread <= TAU_ABS + TAU_REL * scale,
            l2 - l3 <= TAU_GAP * spread, l1 - l2 <= TAU_GAP * spread)


def _bases_over(s: tuple, ssq: tuple, j2, lis) -> tuple:
    """(distinct bases, whether a denominator vanished); floats or (n,) arrays.

    The basis of each li in lis is the deviatoric numerator
    (s.s + li s + (li^2 - J2) I) / (3 li^2 - J2), with s and ssq the
    components of the deviator and of its square, and li a deviatoric
    eigenvalue lam_i - I1/3.  Algebraically identical to the adjugate form
    lam_i((lam_i - I1) I + T) + adj(T) over the same denominator, but free
    of the volumetric cancellation that form suffers near coincident
    eigenvalues.
    """
    bases = []
    vanished = False
    for li in lis:
        den = 3.0 * li * li - j2
        vanished = vanished | (abs(den) <= 16.0 * _EPS * (j2 + 3.0 * li * li))
        c = li * li - j2
        bases.append(SymTensor2(
            (ssq[0] + li * s[0] + c) / den,
            (ssq[1] + li * s[1] + c) / den,
            (ssq[2] + li * s[2] + c) / den,
            (ssq[3] + li * s[3]) / den,
            (ssq[4] + li * s[4]) / den,
            (ssq[5] + li * s[5]) / den,
        ))
    return tuple(bases), vanished


def _pair(n_hat: SymTensor2) -> SymTensor2:
    """The shared basis (I - N_hat)/2 of the repeated pair of a double
    spectrum, from the basis N_hat of its lone eigenvalue; floats or (n,)
    arrays."""
    return SymTensor2(0.5 * (1.0 - n_hat.xx), 0.5 * (1.0 - n_hat.yy), 0.5 * (1.0 - n_hat.zz),
                      -0.5 * n_hat.xy, -0.5 * n_hat.xz, -0.5 * n_hat.yz)


_THIRD_I = SymTensor2(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0, 0.0, 0.0, 0.0)


def spectrum(t: SymTensor2) -> Spectrum:
    """Full spectral decomposition with branch dispatch, in one pass: the
    invariants, the deviator and the norm come from one evaluation, and
    only the bases, the invariants and the Spectrum itself are built.
    A tensor whose Lode angle is undefined is triple, whatever its gaps.
    ContractError names a component of t that is NaN or infinite."""
    inv, s, nrm = _invariants(t)
    try:
        lam = eigenvalues(inv)
    except DegeneracyError:
        _refuse_nonfinite(t)
        raise
    mult = classify(lam, nrm) if inv.theta_defined else _TRIPLE
    if mult is _TRIPLE:
        return Spectrum(lam, mult, (_THIRD_I, _THIRD_I, _THIRD_I), inv)
    # On a double branch only the lone eigenvalue, whose denominator is near 3 J2.
    k = mult.unique_index
    third = inv.i1 / 3.0
    lis = (lam[0] - third, lam[1] - third, lam[2] - third) if k is None else (lam[k] - third,)
    try:
        bases, vanished = _bases_over(s, _sym_square(s), inv.j2, lis)
    except ZeroDivisionError:
        vanished = True
    if vanished:
        raise BranchError("eigenbasis denominator vanished: repeated eigenvalue")
    if k is not None:
        n_rep = _pair(bases[0])
        bases = (bases[0], n_rep, n_rep) if k == 0 else (n_rep, n_rep, bases[0])
    return Spectrum(lam, mult, bases, inv)


@np.errstate(all="ignore")
def _spectrum_rows(t: SymTensor2) -> tuple[Spectrum, np.ndarray]:
    """spectrum of the rows of t, whose components are (n,) arrays, and the
    mask of the rows it holds for: those that pass its guards.  mult is the
    (n,) array of each row's position in _MULTS."""
    inv, s, nrm = _invariant_rows(t)
    third = inv.i1 / 3.0
    l1, l2, l3, in_order = _eigen_terms(third, _TWO_OVER_SQRT3 * np.sqrt(inv.j2), inv.theta,
                                        _ROW_MATH)
    l2 = np.minimum(l2, l1)
    lam = (l1, l2, np.minimum(l3, l2))
    triple, high_unique, low_unique = _coincidences(lam, nrm)
    triple = triple | ~inv.theta_defined
    code = np.select((triple, high_unique, low_unique), (3, 1, 2), 0)
    dist, vanished = _bases_over(s, _sym_square(s), inv.j2, tuple(x - third for x in lam))
    # The lone basis of a double row is the distinct basis of its eigenvalue.
    pair0, pair2 = _pair(dist[0]), _pair(dist[2])
    picks = (dist, (dist[0], pair0, pair0), (pair2, pair2, dist[2]), (_THIRD_I,) * 3)
    bases = tuple(SymTensor2(*(np.choose(code, [p[i].as_tuple()[k] for p in picks])
                               for k in range(6))) for i in range(3))
    # The scalar bases raise where a distinct denominator vanishes.
    return Spectrum(lam, code, bases, inv), in_order & ~((code == 0) & vanished)


_I = IDENTITY2.as_tuple()


def _anchored(v, n1: SymTensor2, n3: SymTensor2) -> SymTensor2:
    """sum v[i] N_i anchored at the middle eigenvalue as v[1] I + (v[0] - v[1])
    N_1 + (v[2] - v[1]) N_3: sum(N_i) = I holds exactly, so only differences
    of v multiply the bases that degrade near a coincidence.  The shear
    components keep the I term v[1] * 0.0, which is a signed zero, or NaN
    for an infinite v[1]."""
    m, a, b = v[1], v[0] - v[1], v[2] - v[1]
    return SymTensor2(m + a * n1.xx + b * n3.xx,
                      m + a * n1.yy + b * n3.yy,
                      m + a * n1.zz + b * n3.zz,
                      m * 0.0 + a * n1.xy + b * n3.xy,
                      m * 0.0 + a * n1.xz + b * n3.xz,
                      m * 0.0 + a * n1.yz + b * n3.yz)


# Rows 0-5: d2_I3 of the unit tensors; row 6: I4 - I x I.
_SPIN_TABLE = np.vstack((_D2, (IDENTITY4.m - IXI.m).ravel()))


def _packed(ops, pack, like) -> tuple:
    """(flat, matrix product) of the floats ops: their bytes as doubles, and
    ndarray.dot; or, when like is an (n,) array, ops of (n,) arrays and
    floats as the columns of an (n, len(ops)) array, and np.matmul, which
    rounds as ndarray.dot does on each matrix view with unit inner stride.
    Packing bytes costs a third of np.array, and np.stack of the broadcast
    operands 2.5 times these column writes on 512 rows."""
    if not isinstance(like, np.ndarray):
        return np.frombuffer(pack(*ops)), np.ndarray.dot
    flat = np.empty((len(like), len(ops)))
    for i, x in enumerate(ops):
        flat[:, i] = x
    return flat, np.matmul


# The flat operands of one _spin_sum, without and with a tail: 30 rows and
# 22 numbers, plus 18 rows and 9 numbers.
_PACK_SPIN_OPERANDS = (struct.Struct("52d").pack, struct.Struct("79d").pack)


def _spin_sum(t: SymTensor2, sp: Spectrum, c, d=(0.0, 0.0, 0.0), tail=None) -> np.ndarray:
    """Stored array of sum_i c[i] spin(t, sp, i) + sum_i d[i] N_i x N_i, plus
    sum_i N_i x (K G)[i] when tail = (G, K) is given: G the components of
    three gradient rows, 18 numbers, and K a 3x3 nested sequence.  Floats,
    or (n,) arrays for the rows of t and sp, then an (n, 6, 6) stack.

    With a_i = c[i] / (3 l_i^2 - J2) and w_i the w of spin, the
    dyads on N_i are X^T Y + (X^T Y)^T over rows X_i = N_i and
    Y_i = a_i w_i + d[i] N_i / 2,
    and the rest is (sum a_i lam_i)(I4 - I x I) + (sum a_i) d2_I3(T), one
    product with a constant table.  Half of that rest is added before the
    transpose is, so that the array is exactly symmetric without the tail.
    An eigenvalue of weight 0 is skipped: its denominator may vanish.

    The operands are views of one array of doubles (see _packed), one row
    of it per row of t: the rows N_0, N_1, N_2, I, T and G, then the numbers
    of the 3x5 coefficients of Y on the first five rows, the rest vector
    (half T, half sum a_i lam_i) and K.
    """
    coef, half, half_al = _spin_coef(sp, c, d)
    tv = t.as_tuple()
    b0, b1, b2 = sp.bases
    g, k = tail or ((), ((), (), ()))
    ops = (*b0.as_tuple(), *b1.as_tuple(), *b2.as_tuple(), *_I, *tv, *g,
           *coef[0], *coef[1], *coef[2], *[half * x for x in tv], half_al, *k[0], *k[1], *k[2])
    flat, mm = _packed(ops, _PACK_SPIN_OPERANDS[bool(g)], tv[0])
    lead, num0 = flat.shape[:-1], 30 + len(g)
    nv_t = flat[..., :18].reshape(lead + (3, 6)).swapaxes(-1, -2)
    q = (mm(nv_t, mm(flat[..., num0:num0 + 15].reshape(lead + (3, 5)),
                     flat[..., :30].reshape(lead + (5, 6))))
         + mm(flat[..., num0 + 15:num0 + 22], _SPIN_TABLE).reshape(lead + (6, 6)))
    q = q + q.swapaxes(-1, -2)
    if not g:
        return q
    return q + mm(nv_t, mm(flat[..., num0 + 22:].reshape(lead + (3, 3)),
                           flat[..., 30:48].reshape(lead + (3, 6))))


def _spin_coef(sp: Spectrum, c, d) -> tuple:
    """(row i: the coefficients of Y_i on N_0, N_1, N_2, I and T; (sum a_i)/2;
    (sum a_i lam_i)/2) of _spin_sum; floats or (n,) arrays."""
    j2, i1 = sp.inv.j2, sp.inv.i1
    third = i1 / 3.0
    coef = [[0.0] * 5, [0.0] * 5, [0.0] * 5]
    sum_a = sum_al = 0.0
    for i in range(3):
        coef[i][i] = 0.5 * d[i]
        # A weight given as an array is evaluated on every row.
        if not isinstance(c[i], float) or c[i]:
            li = sp.lam[i] - third
            a = c[i] / (3.0 * li * li - j2)
            coef[i][i] -= 3.0 * a * li
            coef[i][3] = a * (2.0 * sp.lam[i] - i1)
            coef[i][4] = a
            sum_a += a
            sum_al += a * sp.lam[i]
    return coef, 0.5 * sum_a, 0.5 * sum_al


# For a (6, 2, 6) array (X, Y), ravel((X, Y)) @ _T_SK is ravel(X + sym(Y)).
_T_SK = np.stack((np.eye(36).reshape(6, 6, 36), _SYM.reshape(6, 6, 36)), 1).reshape(72, 36)
_PACK_COINCIDENT_OPERANDS = struct.Struct("20d").pack


def _coincident_tangent(dv, eps_q, sign, q, gp, gq, c) -> np.ndarray:
    """Stored array of dS/dT for S of _double_values, from its arguments and
    the partials gp and gq of p and q in (I1, eps_q) of T; or on the triple
    branch, where eps_q is 0, gp[0] I x I + g IDEV with g = (2/3) gq[1].
    Floats, or (n,) arrays for a stack of arrays.

    With f = 2 / (3 eps_q) it is gp[0] I x I + f (gp[1] I x dv + gq[0] dv x I
    + f (gq[1] - q / eps_q) dv x dv + q IDEV) + c (sym(P x P) - P x P / 2).
    As IDEV = sym(I x I) - I x I / 3, each term is bilinear in the rows
    U = (I, dv): the array is U^T W U + sym(U^T V U) with 2x2 coefficients
    W and V, from the 20 numbers of U and (W | V) multiplied as in _packed.
    """
    g = (2.0 / 3.0) * gq[1]
    iso = (gp[0] - g / 3.0, 0.0, g, 0.0, 0.0, 0.0, 0.0, 0.0)
    rows = isinstance(eps_q, np.ndarray)
    if not rows and eps_q == 0.0:
        coef, dv = iso, (0.0,) * 6
    else:
        e = np.where(eps_q == 0.0, 1.0, eps_q) if rows else eps_q
        f = 2.0 / (3.0 * e)
        b = sign * f
        fq, caa, cab, cbb = f * q, (4.0 / 9.0) * c, (2.0 / 3.0) * c * b, c * b * b
        coef = (gp[0] - fq / 3.0 - 0.5 * caa, f * gp[1] - 0.5 * cab, fq + caa, cab,
                f * gq[0] - 0.5 * cab, f * (f * (gq[1] - q / e)) - 0.5 * cbb, cab, cbb)
    if rows:
        triple = eps_q == 0.0
        coef = [np.where(triple, x, y) for x, y in zip(iso, coef)]
        dv = [np.where(triple, 0.0, x) for x in dv]
    flat, mm = _packed((1.0, 1.0, 1.0, 0.0, 0.0, 0.0, *dv, *coef),
                       _PACK_COINCIDENT_OPERANDS, eps_q)
    lead = flat.shape[:-1]
    u = flat[..., :12].reshape(lead + (2, 6))
    # Rows 2i and 2i + 1 of the product: row i of U^T W U and of U^T V U.
    uwv = mm(mm(u.swapaxes(-1, -2), flat[..., 12:].reshape(lead + (2, 4))).reshape(lead + (12, 2)),
             u)
    return mm(uwv.reshape(lead + (1, 72)), _T_SK).reshape(lead + (6, 6))


def _double_values(dv, eps_q, sign, q, p, c, j2, j3) -> tuple:
    """The components of S on a double branch from the deviator dv of T,
    its eps_q = 2 sqrt(J2/3), J2 and J3, the theta sign, the invariants p
    and q of S and the in-pair coefficient c: S = p I + f q D + (3/4) c
    (P.D.P - (P:D) P / 2) at D = dv, P = a I + b D, with f = 2 / (3 eps_q),
    a = 2/3 and b = sign f.  As D^3 = J2 D + J3 I, the last term is
    (3/4) c (a^2 D + 2 a b D^2 + (b^2 J3 - a b J2) I).  Floats or (n,) arrays.

    Splitting the repeated pair moves S at an in-pair slope of which the
    (I1, q) axes carry only f q; c is the difference, and acts through the
    projector pair D -> P.D.P - (P:D) P / 2.  At an exact coincidence the
    term is zero, but classification admits pairs split by up to the gap
    tolerance, and without it S would respond to that split with the wrong
    slope, against its tangent and the distinct branch.  P, built from the
    split deviator, inflates the in-pair part by 4/3 to first order, hence
    the 3/4.
    """
    f = 2.0 / (3.0 * eps_q)
    b, k = sign * f, 0.75 * c
    kd, ks = f * q + (4.0 / 9.0) * k, (4.0 / 3.0) * k * b
    ki = p + k * (b * b * j3 - (2.0 / 3.0) * b * j2)
    sq = _sym_square(dv)
    return (ki + kd * dv[0] + ks * sq[0], ki + kd * dv[1] + ks * sq[1],
            ki + kd * dv[2] + ks * sq[2], kd * dv[3] + ks * sq[3],
            kd * dv[4] + ks * sq[4], kd * dv[5] + ks * sq[5])


def spin(t: SymTensor2, sp: Spectrum, i: int) -> SymTensor4:
    """Derivative dN_i/dT of the eigenbasis of a simple eigenvalue.

    Defined for every index in the distinct case and only for the lone
    eigenvalue in the double case; never for a repeated eigenvalue.

    dN_i/dT = (N_i x w + w x N_i + lam_i (I4 - I x I) + d2_I3(T))
    / (3 l_i^2 - J2), the denominator of the basis, with l_i = lam_i - I1/3,
    w = -3 l_i N_i + (2 lam_i - I1) I + T and d2_I3 the second derivative of
    det (see tensor_core._D2).  The stored entry at row (ab), column (cd) is
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
    return SymTensor4._of(_spin_sum(t, sp, [float(k == i) for k in range(3)]))
