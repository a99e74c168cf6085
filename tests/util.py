"""Shared helpers for the test suite: random tensors with controlled spectra."""

import math
from dataclasses import dataclass

import numpy as np

from spectens import (
    ContractError,
    ConvergenceError,
    IDENTITY2,
    IDENTITY4,
    IXI,
    InvariantReturnMap,
    InvariantSet,
    Multiplicity,
    MultTag,
    ScalarEigenMap,
    Spectrum,
    SymTensor2,
    classify,
    det,
    deviator,
    eigenvalues,
    left_cauchy_green,
    log_strain_from_b,
    norm,
    stress_and_tangent,
)
from spectens.oracle import fd_tensor_derivative
from spectens.plasticity import _stress_tangent_rows
from spectens.spectral import _spectrum_rows
from spectens.logstrain import _log_strain_rows
from spectens.tensor_core import (
    _D2,
    TAU_ABS,
    TAU_GAP,
    TAU_REL,
    SymTensor4,
    _SYM,
    _sym_square,
)


# Finite-difference gates for user-supplied maps, and small helpers that
# only the tests call.

def identity_map() -> ScalarEigenMap:
    return ScalarEigenMap(lambda x: x, lambda x: 1.0)


def check_scalar_map(f: ScalarEigenMap, samples, tol: float = 1e-6) -> None:
    """Self-consistency gate: deriv must match central differences of eval."""
    for lam in samples:
        h = 1e-6 * max(1.0, abs(lam))
        if not (f.contains(lam - h) and f.contains(lam + h)):
            continue
        fd = (f.eval(lam + h) - f.eval(lam - h)) / (2.0 * h)
        d = f.deriv(lam)
        if abs(fd - d) > tol * max(1.0, abs(d)):
            raise ContractError(
                f"scalar map derivative {d!r} disagrees with finite differences "
                f"{fd!r} at lam = {lam!r}")


def sym_square(t: SymTensor2) -> SymTensor2:
    """t.t, which is symmetric whenever t is."""
    return SymTensor2(*_sym_square(t.as_tuple()))


def verify_return_map(rm: InvariantReturnMap, points, tol: float = 1e-6) -> None:
    """Gate a user map before trusting its gradients.

    At every point, all nine declared partials must match finite differences
    of the scalars (forward differences on the eps_q axis when a central
    stencil would cross eps_q < 0).  Additionally, at eps_q = 0 the map must
    decouple volume from shear: dp/d(eps_q) = dq/d(eps_v) = 0, or a purely
    volumetric state would not produce a purely volumetric stress.  And at
    theta = +-pi/6 the map must keep the Lode angle where it is:
    theta_sigma = +-pi/6 with zero eps_v and eps_q partials, or the
    distinct-branch stress would not meet the double-branch one at the
    switch.
    """
    scalars = ((rm.p, rm.grad_p, "p"), (rm.q, rm.grad_q, "q"),
               (rm.theta_sigma, rm.grad_theta_sigma, "theta_sigma"))
    for pt in points:
        ev, eq, th = (float(x) for x in pt)
        for fn, grad, name in scalars:
            g = grad(ev, eq, th)
            for axis in range(3):
                x0 = (ev, eq, th)[axis]
                h = 1e-6 * max(1.0, abs(x0))
                lo = [ev, eq, th]
                hi = [ev, eq, th]
                if axis == 1 and eq - h < 0.0:
                    hi[1] = eq + h
                    fd = (fn(*hi) - fn(ev, eq, th)) / h
                else:
                    lo[axis] = x0 - h
                    hi[axis] = x0 + h
                    fd = (fn(*hi) - fn(*lo)) / (2.0 * h)
                if abs(fd - g[axis]) > tol * max(1.0, abs(g[axis])):
                    raise ContractError(
                        f"return map {name} gradient component {axis} is "
                        f"{g[axis]!r} but finite differences give {fd!r} at "
                        f"{(ev, eq, th)!r}")
        gp0 = rm.grad_p(ev, 0.0, 0.0)
        gq0 = rm.grad_q(ev, 0.0, 0.0)
        if abs(gp0[1]) > tol or abs(gq0[0]) > tol:
            raise ContractError(
                "return map couples volume and shear at eps_q = 0: "
                f"dp/deps_q = {gp0[1]!r}, dq/deps_v = {gq0[0]!r}")
        for th0 in (-math.pi / 6.0, math.pi / 6.0):
            ts = rm.theta_sigma(ev, eq, th0)
            g = rm.grad_theta_sigma(ev, eq, th0)
            if abs(ts - th0) > tol or abs(g[0]) > tol or abs(g[1]) > tol:
                raise ContractError(
                    "return map moves the Lode angle of a double predictor, so the stress "
                    f"jumps at the switch: theta_sigma = {ts!r} and its eps_v and eps_q "
                    f"partials are {tuple(g[:2])!r} at {(ev, eq, th0)!r}, theta = +-pi/6")


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


def isotropic_plus(a, d, quat):
    """a I + R diag(d) R^T as stored, with R the rotation of the quaternion
    quat (normalized here): with |d| small against |a|, a deviator under a
    dominant isotropic part."""
    q = np.array(quat)
    r = quat_rotation(q / np.linalg.norm(q))
    return SymTensor2.from_matrix(a * np.eye(3) + r @ np.diag(list(d)) @ r.T)


def split_pair(eigs, frac):
    """The eigenvalues eigs, descending with one repeated pair, with that
    pair moved apart by frac TAU_GAP times the spread: a double spectrum
    whose pair is split inside the gap tolerance when |frac| < 1."""
    e = list(eigs)
    k = 1 if e[1] == e[2] else 0
    e[k] += frac * TAU_GAP * (e[0] - e[2])
    return e


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
    return SymTensor4((np.outer(a.as_tuple(), b.as_tuple()).ravel() @ _SYM).reshape(6, 6))


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


def _double_bases_ref(t, inv, lam, mult):
    """(N_hat, N_rep): the distinct basis of the lone eigenvalue and half
    its complement, the shared basis of the repeated pair."""
    s = deviator(t)
    n_hat = _distinct_basis_ref(s, sym_square(s), inv.j2, lam[mult.unique_index] - inv.i1 / 3.0)
    n_rep = SymTensor2(0.5 * (1.0 - n_hat.xx), 0.5 * (1.0 - n_hat.yy),
                       0.5 * (1.0 - n_hat.zz), -0.5 * n_hat.xy,
                       -0.5 * n_hat.xz, -0.5 * n_hat.yz)
    return n_hat, n_rep


# Roundoff puts l1 - l3 of this tensor just above the triple floor while
# 2 sqrt(J2) is below it: its Lode angle is undefined, and no gap test may
# call it distinct.
BAND_TENSOR = SymTensor2(273.4868993801703, 273.48689938063836, 273.4868993664785,
                         1.005621030154492e-09, -2.0797976305382715e-08, -7.91971176317363e-09)


def spectrum_ref(t):
    inv = invariants_ref(t)
    lam = eigenvalues(inv)
    # A tensor whose Lode angle is undefined is triple, whatever its gaps.
    mult = classify(lam, norm(t)) if inv.theta_defined else Multiplicity(MultTag.TRIPLE)
    if mult.tag is MultTag.DISTINCT:
        s = deviator(t)
        ssq = sym_square(s)
        third = inv.i1 / 3.0
        bases = tuple(_distinct_basis_ref(s, ssq, inv.j2, x - third) for x in lam)
    elif mult.tag is MultTag.TRIPLE:
        bases = (SymTensor2(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0, 0.0, 0.0, 0.0),) * 3
    else:
        n_hat, n_rep = _double_bases_ref(t, inv, lam, mult)
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


# Newton drivers on the library's exact tangents.  Each returns the error
# norms of its iterates, so that a test can check that they fall
# quadratically.  The stored 6x6 array m of a tangent maps the components v
# of a perturbation to m @ (v * _WEIGHTS), since apply() doubles the shear.

def _newton(residual, x, free, max_iter, floor):
    """Newton iterates of residual(x) -> (r, stored tangent m) = 0 over the
    slots free of the 6-vector x: (solution, residual norms).  Stops once a
    norm is at most floor; ConvergenceError if none is within max_iter."""
    weights = np.array(_WEIGHTS)
    errs = []
    for _ in range(max_iter):
        r, m = residual(x)
        errs.append(float(np.linalg.norm(r[free])))
        if errs[-1] <= floor:
            return x, errs
        jac = m[np.ix_(free, free)] * weights[free]
        x = x.copy()
        x[free] -= np.linalg.solve(jac, r[free])
    raise ConvergenceError(f"Newton did not reach {floor:.1e} in {max_iter} steps: {errs}")


def invert_log_strain(eps, b0, max_iter=20, floor=1e-14):
    """B with log_strain_from_b(B).eps = eps by Newton on deps_db from b0:
    (B, residual norms)."""
    target = np.array(eps.as_tuple())

    def residual(b):
        res = log_strain_from_b(SymTensor2(*b.tolist()))
        return np.array(res.eps.as_tuple()) - target, res.deps_db.m

    b, errs = _newton(residual, np.array(b0.as_tuple()), list(range(6)), max_iter, floor)
    return SymTensor2(*b.tolist()), errs


def mixed_control_point(rm, eps0, fixed, max_iter=30, floor=1e-15):
    """The material point of the return map rm with the strain slots in
    fixed held at their values in eps0 and the stress zero in every other
    slot, by Newton on stress_and_tangent from eps0: (strain, residual
    norms of the free stresses)."""
    free = [k for k in range(6) if k not in fixed]

    def residual(e):
        sigma, tan = stress_and_tangent(SymTensor2(*e.tolist()), rm)
        return np.array(sigma.as_tuple()), tan.m

    e, errs = _newton(residual, np.array(eps0.as_tuple()), free, max_iter, floor)
    return SymTensor2(*e.tolist()), errs


def invert_log_strain_rows(epss, b0s, max_iter=20, floor=1e-14):
    """invert_log_strain from each pair of epss and b0s at once, evaluated
    by the CLI's row kernels, _spectrum_rows and _log_strain_rows, as
    _newton_rows."""
    target = np.array([e.as_tuple() for e in epss])

    def residual(live, t):
        sp, ok = _spectrum_rows(t)
        eps, deps, ok = _log_strain_rows(t, sp, ok)
        return eps - target[live], deps, ok

    return _newton_rows(residual, np.array([b.as_tuple() for b in b0s]), list(range(6)),
                        max_iter, floor)


def mixed_control_rows(rm, eps0s, fixed, max_iter=30, floor=1e-15):
    """mixed_control_point from each strain of eps0s at once, evaluated by
    the CLI's row kernels, _spectrum_rows and _stress_tangent_rows, as
    _newton_rows."""
    def residual(live, t):
        sp, ok = _spectrum_rows(t)
        return _stress_tangent_rows(t, sp, rm, ok)

    return _newton_rows(residual, np.array([e.as_tuple() for e in eps0s]),
                        [k for k in range(6) if k not in fixed], max_iter, floor)


def _newton_rows(residual, x, free, max_iter, floor):
    """_newton from each row of the (n, 6) array x at once, each step
    evaluated on the rows not yet converged by residual(live, t) -> (r as
    (m, 6), stored tangents as (m, 6, 6), ok) for the indices live of those
    rows and the tensor t of them: (final rows as (n, 6), residual norms of
    each row, iterates of each row)."""
    jac_weights = np.array(_WEIGHTS)[free]
    errs, iterates = [[] for _ in x], [[] for _ in x]
    live = list(range(len(x)))
    for _ in range(max_iter):
        r, tan, ok = residual(live, SymTensor2(*x[live].T))
        if not ok.all():
            raise ConvergenceError(f"the row kernels refused the iterates {x[live][~ok]}")
        still = []
        for j, i in enumerate(live):
            iterates[i].append(x[i].copy())
            errs[i].append(float(np.linalg.norm(r[j, free])))
            if errs[i][-1] > floor:
                x[i, free] -= np.linalg.solve(tan[j][np.ix_(free, free)] * jac_weights,
                                              r[j, free])
                still.append(i)
        live = still
        if not live:
            return x, errs, iterates
    raise ConvergenceError(f"Newton did not reach {floor:.1e} in {max_iter} steps: {errs}")


def quadratic_ratio(errs, floor):
    """The largest e_{k+1} / e_k^2 over the Newton steps of errs that end
    above floor, the rounding floor; 0.0 if none does."""
    return max((e1 / (e0 * e0) for e0, e1 in zip(errs, errs[1:]) if e1 > floor), default=0.0)
