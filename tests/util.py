"""Shared helpers for the test suite: random tensors with controlled spectra."""

import math

import numpy as np

from spectens import IDENTITY2, IDENTITY4, IXI, SymTensor2, dyad


def rand_sym(rng, scale=1.0):
    return SymTensor2(*(float(x) for x in scale * rng.standard_normal(6)))


def rand_rotation(rng):
    """Uniform random rotation matrix via a normalized quaternion."""
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
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


# Loop and dyad-composed references for the closed-form 6x6 kernels of
# sym_kron, d2_I3 and spin.  They return the stored 6x6 arrays.

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


def d2_I3_ref(t):
    return (2.0 * sym_kron_ref(t, IDENTITY2)
            - dyad(t, IDENTITY2).m - dyad(IDENTITY2, t).m
            + t.trace() * (IXI.m - IDENTITY4.m))


def spin_ref(t, sp, i):
    """dN_i/dT as the sum of six dyads over J2 (4 sin^2 beta_i - 1)."""
    j2 = sp.inv.j2
    sb = math.sin(sp.beta[i])
    den = j2 * (4.0 * sb * sb - 1.0)
    lam_i = sp.lam[i]
    n = sp.bases[i]
    return (-4.0 * math.sqrt(3.0 * j2) * sb * dyad(n, n).m
            + (2.0 * lam_i - sp.inv.i1) * (dyad(n, IDENTITY2).m + dyad(IDENTITY2, n).m)
            + (dyad(n, t).m + dyad(t, n).m)
            + lam_i * (IDENTITY4.m - IXI.m)
            + d2_I3_ref(t)) * (1.0 / den)
