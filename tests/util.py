"""Shared helpers for the test suite: random tensors with controlled spectra."""

import math
from dataclasses import dataclass

import numpy as np

from spectens import (
    DEFAULT_TOLS,
    IDENTITY2,
    IDENTITY4,
    IXI,
    InvariantSet,
    Multiplicity,
    MultTag,
    Spectrum,
    SymTensor2,
    classify,
    det,
    deviator,
    eigenvalues,
    left_cauchy_green,
    log_strain_from_b,
    norm,
    sym_square,
)
from spectens.oracle import fd_tensor_derivative
from spectens.tensor_core import _D2, TAU_ABS, TAU_REL, SymTensor4, _sym_kron_m


def rand_sym(rng, scale=1.0):
    return SymTensor2(*(float(x) for x in scale * rng.standard_normal(6)))


def rand_rotation(rng):
    """Uniform random rotation matrix via a normalized quaternion."""
    q = rng.standard_normal(4)
    return quat_rotation(q / np.linalg.norm(q))


def quat_rotation(q):
    """Rotation matrix of the unit quaternion q = (w, x, y, z)."""
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def rotate(t, r):
    """Similarity transform R t R^T."""
    return SymTensor2.from_matrix(r @ np.array(t.to_matrix()) @ r.T)


def make_with_eigs(rng, eigs):
    """Random-orientation symmetric tensor with the given eigenvalues."""
    r = rand_rotation(rng)
    return SymTensor2.from_matrix(r @ np.diag(list(eigs)) @ r.T)


def log_uniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def rel2(a, b, floor=0.0):
    """Relative Frobenius distance between two second-order tensors."""
    from spectens import norm
    return norm(a - b) / max(norm(b), floor, 1e-300)


def rel4(a, b):
    """Relative Frobenius distance between two fourth-order tensors."""
    num = math.sqrt(sum((x - y) ** 2 for x, y in zip(a.as_list(), b.as_list())))
    den = math.sqrt(sum(x * x for x in b.as_list()))
    return num / den


def frob4(a):
    return math.sqrt(sum(x * x for x in a.as_list()))


# The 6x6 kernels of the tangent path as fourth-order tensors.

def sym_kron(a, b):
    """The symmetrized dyad of a and b: d -> (a.d.b + b.d.a) / 2."""
    return SymTensor4(_sym_kron_m(a.as_tuple(), b.as_tuple()))


def d2_I3(t):
    """The second derivative of det(t), as the spin kernel builds it."""
    return SymTensor4((np.array(t.as_tuple()) @ _D2).reshape(6, 6))


# Loop and dyad-composed references for the closed-form 6x6 kernels of
# the symmetrized dyad, d2_I3 and spin.  They return the stored 6x6 arrays.

_BASIS_MATRICES = tuple(
    np.array(m, dtype=float)
    for m in (
        [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
        [[0, 0, 0], [0, 1, 0], [0, 0, 0]],
        [[0, 0, 0], [0, 0, 0], [0, 0, 1]],
        [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
        [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
    )
)
_WEIGHTS = (1.0, 1.0, 1.0, 2.0, 2.0, 2.0)


def sym_kron_ref(a, b):
    """Column k is the 3x3 sandwich (a.e_k.b + b.e_k.a)/2 of the k-th basis
    matrix, divided by the shear weight of that slot."""
    am = np.array(a.to_matrix())
    bm = np.array(b.to_matrix())
    cols = np.empty((6, 6))
    for k, e in enumerate(_BASIS_MATRICES):
        k3 = 0.5 * (am @ e @ bm + bm @ e @ am)
        cols[:, k] = (k3[0, 0], k3[1, 1], k3[2, 2], k3[0, 1], k3[0, 2], k3[1, 2])
        cols[:, k] /= _WEIGHTS[k]
    return cols


def _dyad(a, b):
    return np.outer(a.as_tuple(), b.as_tuple())


def d2_I3_ref(t):
    return (2.0 * sym_kron_ref(t, IDENTITY2)
            - _dyad(t, IDENTITY2) - _dyad(IDENTITY2, t)
            + t.trace() * (IXI.m - IDENTITY4.m))


_SHIFTS = (2.0 * math.pi / 3.0, 0.0, -2.0 * math.pi / 3.0)


def sin_beta(sp, i):
    """sin(beta_i), beta_i = theta + 2 pi/3, theta, theta - 2 pi/3: the angle
    of the i-th eigenvalue in lam_i = I1/3 + (2/sqrt(3)) sqrt(J2) sin(beta_i)."""
    return math.sin(sp.inv.theta + _SHIFTS[i])


def spin_den(sp, i):
    """The spin denominator J2 (4 sin^2 beta_i - 1) in its trigonometric form."""
    sb = sin_beta(sp, i)
    return sp.inv.j2 * (4.0 * sb * sb - 1.0)


def spin_ref(t, sp, i):
    """dN_i/dT as the sum of six dyads over J2 (4 sin^2 beta_i - 1)."""
    j2 = sp.inv.j2
    sb = sin_beta(sp, i)
    lam_i = sp.lam[i]
    n = sp.bases[i]
    return (-4.0 * math.sqrt(3.0 * j2) * sb * _dyad(n, n)
            + (2.0 * lam_i - sp.inv.i1) * (_dyad(n, IDENTITY2) + _dyad(IDENTITY2, n))
            + (_dyad(n, t) + _dyad(t, n))
            + lam_i * (IDENTITY4.m - IXI.m)
            + d2_I3_ref(t)) * (1.0 / spin_den(sp, i))


# spectrum composed step by step from the public functions, as it was before
# it became one pass: invariants, eigenvalues, classification against
# norm(t), and bases from deviator(t) and sym_square.  Kept as an exact
# reference: the one-pass spectrum keeps the order of every operation, so
# the two agree bit for bit.

def invariants_ref(t):
    i1 = t.trace()
    i2 = (t.xx * t.yy + t.yy * t.zz + t.zz * t.xx
          - t.xy * t.xy - t.xz * t.xz - t.yz * t.yz)
    i3 = det(t)
    s = deviator(t)
    j2 = (0.5 * (s.xx * s.xx + s.yy * s.yy + s.zz * s.zz)
          + s.xy * s.xy + s.xz * s.xz + s.yz * s.yz)
    j3 = det(s)
    sqrt_j2 = math.sqrt(j2)
    if sqrt_j2 <= 0.5 * (TAU_ABS + TAU_REL * norm(t)):
        return InvariantSet(i1, i2, i3, j2, j3, 0.0, False)
    arg = -0.5 * math.sqrt(27.0) * j3 / (j2 * sqrt_j2)
    if abs(arg) > 1.0:
        arg = math.copysign(1.0, arg)
    return InvariantSet(i1, i2, i3, j2, j3, math.asin(arg) / 3.0, True)


def _distinct_basis_ref(s, ssq, j2, li):
    den = 3.0 * li * li - j2
    c = li * li - j2
    return SymTensor2((ssq.xx + li * s.xx + c) / den, (ssq.yy + li * s.yy + c) / den,
                      (ssq.zz + li * s.zz + c) / den, (ssq.xy + li * s.xy) / den,
                      (ssq.xz + li * s.xz) / den, (ssq.yz + li * s.yz) / den)


def _double_bases_ref(t, j2, mult):
    q = math.sqrt(3.0 * j2)
    dev = deviator(t)
    third = 1.0 / 3.0
    f = -float(mult.theta_sign) / q
    n_hat = SymTensor2(third + f * dev.xx, third + f * dev.yy, third + f * dev.zz,
                       f * dev.xy, f * dev.xz, f * dev.yz)
    n_rep = SymTensor2(0.5 * (1.0 - n_hat.xx), 0.5 * (1.0 - n_hat.yy),
                       0.5 * (1.0 - n_hat.zz), -0.5 * n_hat.xy,
                       -0.5 * n_hat.xz, -0.5 * n_hat.yz)
    return n_hat, n_rep


def spectrum_ref(t, tols=DEFAULT_TOLS):
    inv = invariants_ref(t)
    lam = eigenvalues(inv)
    mult = classify(lam, norm(t), tols)
    if mult.tag is MultTag.DISTINCT:
        s = deviator(t)
        ssq = sym_square(s)
        third = inv.i1 / 3.0
        bases = tuple(_distinct_basis_ref(s, ssq, inv.j2, x - third) for x in lam)
    elif mult.tag is MultTag.TRIPLE:
        bases = (SymTensor2(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0, 0.0, 0.0, 0.0),) * 3
    else:
        n_hat, n_rep = _double_bases_ref(t, inv.j2, mult)
        bases = (n_hat, n_rep, n_rep) if mult.unique_index == 0 else (n_rep, n_rep, n_hat)
    return Spectrum(lam, mult, bases, inv)


def cli_record(cmd, rec_id, row, extra):
    """The output record of the CLI command cmd as a dict, from its numbers
    row and its extra field (theta_defined for invariants, None for stress,
    else the multiplicity).  json.dumps of it is the reference for the CLI's
    own serializer."""
    if cmd == "invariants":
        return {"id": rec_id, "I1": row[0], "I2": row[1], "I3": row[2],
                "J2": row[3], "J3": row[4], "theta": row[5], "theta_defined": extra}
    if cmd == "logstrain":
        return {"id": rec_id, "branch": extra.tag.value, "eps": row[:6], "deps_dB": row[6:]}
    if cmd == "stress":
        return {"id": rec_id, "sigma": row[:6], "tangent": row[6:]}
    if cmd == "spin":
        return {"id": rec_id, "multiplicity": extra.tag.value,
                "spins": [row[:36], row[36:72], row[72:]]}
    out = {"id": rec_id, "lambda": row[:3], "multiplicity": extra.tag.value,
           "unique_index": extra.unique_index}
    if cmd == "basis":
        out["bases"] = [row[3:9], row[9:15], row[15:]]
    return out


@dataclass(frozen=True)
class TangentCheckReport:
    branch: Multiplicity
    h: float
    max_rel_error: float


def log_strain_tangent_check(f, h=1e-6):
    """Compare the analytic d(eps)/dB against central finite differences on B.

    Returns the relative Frobenius error; near a coincidence the differenced
    branch may differ from the evaluation branch, which is the interesting
    regime for this check.
    """
    b = left_cauchy_green(f)
    res = log_strain_from_b(b)
    step = h * max(1.0, norm(b))
    fd = fd_tensor_derivative(lambda x: log_strain_from_b(x).eps, b, step)
    return TangentCheckReport(branch=res.branch, h=step, max_rel_error=rel4(fd, res.deps_db))
