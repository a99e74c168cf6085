"""Package-level acceptance gates.

Each test prints exactly one [PASS]/[FAIL] line (bypassing capture) so a
plain pytest run doubles as a sign-off checklist.  Tolerances and runtime
budgets are pinned here and are not meant to be loosened casually.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from spectens import (
    IDENTITY2,
    IDENTITY4,
    IXI,
    MultTag,
    SymTensor2,
    SymTensor4,
    consistent_tangent,
    cube_map,
    deviator,
    double_exp_map,
    half_log_map,
    isotropic_function,
    linear_elastic_map,
    log_strain,
    log_strain_from_b,
    norm,
    predictor_invariants,
    reconstruct_stress,
    spectrum,
    spin,
    square_map,
    stress_invariants,
    vonmises_demo_map,
)
from spectens.oracle import fd_tensor_derivative, jacobi_eigen, projector

from conftest import acceptance_lines
from util import log_uniform, rand_rotation, rand_sym, rel2, rel4


def _report(num: int, ok: bool, text: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}"
    acceptance_lines.append(line)
    print(line)
    assert ok, line


def test_criterion_1_spectral_identities():
    rng = np.random.default_rng(101)
    worst_sum = 0.0
    worst_rec = 0.0
    t0 = time.perf_counter()
    for _ in range(10_000):
        scale = log_uniform(rng, 1e-3, 1e3)
        t = rand_sym(rng, scale)
        sp = spectrum(t)
        total = sp.bases[0] + sp.bases[1] + sp.bases[2]
        rec = (sp.lam[0] * sp.bases[0] + sp.lam[1] * sp.bases[1]
               + sp.lam[2] * sp.bases[2])
        worst_sum = max(worst_sum, norm(total - IDENTITY2) / max(1.0, scale))
        worst_rec = max(worst_rec, norm(rec - t) / scale)
    elapsed = time.perf_counter() - t0
    ok = worst_sum <= 1e-12 and worst_rec <= 1e-10 and elapsed < 5.0
    _report(1, ok,
            "partition/reconstruction over 1e4 scaled draws: "
            f"max |sum N - I| = {worst_sum:.2e} (tol 1e-12 rel max(1, scale)), "
            f"max |sum lam N - T| = {worst_rec:.2e} of scale (tol 1e-10), "
            f"{elapsed:.2f} s (budget 5 s)")


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(102)
    worst_lam = 0.0
    worst_basis = 0.0
    t0 = time.perf_counter()
    done = 0
    while done < 1000:
        t = rand_sym(rng)
        pairs = jacobi_eigen(t)
        ref = [p.value for p in pairs]
        spread = ref[0] - ref[2]
        if spread <= 0.0 or min(ref[0] - ref[1], ref[1] - ref[2]) <= 1e-4 * spread:
            continue
        done += 1
        sp = spectrum(t)
        worst_lam = max(worst_lam,
                        max(abs(a - b) for a, b in zip(sp.lam, ref)) / spread)
        worst_basis = max(worst_basis,
                          max(norm(sp.bases[i] - projector(pairs[i]))
                              for i in range(3)))
    elapsed = time.perf_counter() - t0
    ok = worst_lam <= 1e-10 and worst_basis <= 1e-8 and elapsed < 5.0
    _report(2, ok,
            "closed form vs iterative eigensolver over 1e3 separated draws: "
            f"max eigenvalue dev = {worst_lam:.2e} of spread (tol 1e-10), "
            f"max basis dev = {worst_basis:.2e} (tol 1e-8), "
            f"{elapsed:.2f} s (budget 5 s)")


def test_criterion_3_spin_matches_fd():
    rng = np.random.default_rng(103)
    worst = 0.0
    t0 = time.perf_counter()
    done = 0
    while done < 200:
        t = rand_sym(rng)
        sp = spectrum(t)
        spread = sp.lam[0] - sp.lam[2]
        if (sp.mult.tag is not MultTag.DISTINCT
                or min(sp.lam[0] - sp.lam[1], sp.lam[1] - sp.lam[2]) < 1e-3 * spread):
            continue
        done += 1
        dt = rand_sym(rng)
        dt = dt * (1.0 / norm(dt))
        h = 1e-6 * norm(t)
        sp_p = spectrum(t + h * dt)
        sp_m = spectrum(t + (-h) * dt)
        for i in range(3):
            fd = (1.0 / (2.0 * h)) * (sp_p.bases[i] - sp_m.bases[i])
            got = spin(t, i).apply(dt)
            worst = max(worst, norm(got - fd) / max(norm(got), 1e-12))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 10.0
    _report(3, ok,
            "basis spins vs central differences over 200 distinct draws: "
            f"max directional deviation = {worst:.2e} (tol 1e-4), "
            f"{elapsed:.2f} s (budget 10 s)")


def _spd_distinct(rng):
    while True:
        eigs = np.sort(rng.uniform(0.3, 3.0, size=3))[::-1]
        spread = eigs[0] - eigs[2]
        if spread > 0 and min(eigs[0] - eigs[1], eigs[1] - eigs[2]) > 1e-3 * spread:
            r = rand_rotation(rng)
            return SymTensor2.from_matrix(r @ np.diag(eigs) @ r.T)


def _spd_double(rng):
    while True:
        pair = rng.uniform(0.3, 3.0)
        unique = rng.uniform(0.3, 3.0)
        if abs(unique - pair) > 0.05:
            eigs = sorted((pair, pair, unique), reverse=True)
            r = rand_rotation(rng)
            return SymTensor2.from_matrix(r @ np.diag(eigs) @ r.T)


def _spd_triple(rng):
    c = rng.uniform(0.3, 3.0)
    r = rand_rotation(rng)
    return SymTensor2.from_matrix(r @ (c * np.eye(3)) @ r.T)


def test_criterion_4_isotropic_tangents_all_branches():
    rng = np.random.default_rng(104)
    worst = 0.0
    t0 = time.perf_counter()
    for fmap in (half_log_map(), square_map(), cube_map()):
        for gen in (_spd_distinct, _spd_double, _spd_triple):
            for _ in range(200):
                t = gen(rng)
                _, tan = isotropic_function(t, fmap)
                fd = fd_tensor_derivative(lambda x: isotropic_function(x, fmap)[0], t)
                worst = max(worst, rel4(tan, fd))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 20.0
    _report(4, ok,
            "tangents vs FD, 3 maps x 3 branches x 200 draws: "
            f"max relative deviation = {worst:.2e} (tol 1e-4), "
            f"{elapsed:.2f} s (budget 20 s)")


def test_criterion_5_log_strain_round_trip():
    rng = np.random.default_rng(105)
    expm = double_exp_map()
    worst_rt = 0.0
    worst_tr = 0.0
    t0 = time.perf_counter()
    done = 0
    while done < 1000:
        f = rng.standard_normal((3, 3))
        det = np.linalg.det(f)
        if det < 0:
            f[0], det = -f[0], -det
        if not 0.1 <= det <= 10.0:
            continue
        done += 1
        res = log_strain(list(f.reshape(-1)))
        back, _ = isotropic_function(res.eps, expm)
        worst_rt = max(worst_rt, norm(back - res.b) / norm(res.b))
        worst_tr = max(worst_tr, abs(res.eps.trace() - math.log(det)))
    elapsed = time.perf_counter() - t0
    ok = worst_rt <= 1e-9 and worst_tr <= 1e-10 and elapsed < 5.0
    _report(5, ok,
            "exp(2 eps) recovers B over 1e3 gradients: "
            f"max round-trip dev = {worst_rt:.2e} of |B| (tol 1e-9), "
            f"max |tr eps - ln det F| = {worst_tr:.2e} (tol 1e-10), "
            f"{elapsed:.2f} s (budget 5 s)")


def test_criterion_6_degenerate_continuity():
    rng = np.random.default_rng(106)
    r = rand_rotation(rng)
    deltas = (1e-2, 1e-3, 1e-4)

    def strain_err(delta):
        b0 = SymTensor2.from_matrix(r @ np.diag([4.0, 1.0, 1.0]) @ r.T)
        bd = SymTensor2.from_matrix(
            r @ np.diag([4.0, 1.0 + delta, 1.0 - delta]) @ r.T)
        at = log_strain_from_b(b0)
        near = log_strain_from_b(bd)
        assert near.branch.tag is MultTag.DISTINCT
        return max(rel2(near.eps, at.eps), rel4(near.deps_db, at.deps_db))

    rm = vonmises_demo_map(2.0, 1.0, 0.02)

    def stress_err(delta):
        e0 = SymTensor2.from_matrix(r @ np.diag([0.03, 0.012, 0.012]) @ r.T)
        ed = SymTensor2.from_matrix(
            r @ np.diag([0.03, 0.012 * (1 + delta), 0.012 * (1 - delta)]) @ r.T)
        s0, sd = reconstruct_stress(e0, rm), reconstruct_stress(ed, rm)
        m0, md = consistent_tangent(e0, rm), consistent_tangent(ed, rm)
        return max(rel2(sd, s0), rel4(md, m0))

    eps_errs = [strain_err(d) for d in deltas]
    sig_errs = [stress_err(d) for d in deltas]
    monotone = (eps_errs[0] >= eps_errs[1] >= eps_errs[2]
                and sig_errs[0] >= sig_errs[1] >= sig_errs[2])
    ok = monotone and eps_errs[2] <= 1e-3 and sig_errs[2] <= 1e-3
    _report(6, ok,
            "distinct branch converges to the double branch as the gap closes: "
            f"strain errs {[f'{e:.1e}' for e in eps_errs]}, "
            f"stress errs {[f'{e:.1e}' for e in sig_errs]} "
            "over deltas (1e-2, 1e-3, 1e-4); tol 1e-3 at 1e-4")


def test_criterion_7_elastic_map_identity():
    bulk, shear = 2.0, 0.75
    rm = linear_elastic_map(bulk, shear)
    want_tan = SymTensor4(bulk * IXI.m + 2.0 * shear * (IDENTITY4.m - IXI.m / 3.0))
    rng = np.random.default_rng(107)
    worst = 0.0
    for eps in (rand_sym(rng, 0.03),
                0.01 * _spd_double(rng),
                SymTensor2(0.02, 0.02, 0.02, 0, 0, 0)):
        sig = reconstruct_stress(eps, rm)
        want_sig = (bulk * eps.trace()) * IDENTITY2 + 2.0 * shear * deviator(eps)
        worst = max(worst, rel2(sig, want_sig, floor=1.0))
        worst = max(worst, rel4(consistent_tangent(eps, rm), want_tan))
    ok = worst <= 1e-9
    _report(7, ok,
            "linear elastic invariant map reproduces Hooke stress and modulus "
            f"on all three branches: max deviation = {worst:.2e} (tol 1e-9)")


def test_criterion_8_vonmises_path():
    bulk, shear = 2.0, 1.0
    direction = SymTensor2(0.02, -0.006, -0.011, 0.004, 0.002, -0.003)
    qy = 3.0 * shear * predictor_invariants(direction).eps_q
    rm = vonmises_demo_map(bulk, shear, qy)
    worst_q = -math.inf
    for s in np.linspace(0.2, 2.0, 19):
        sig = reconstruct_stress(float(s) * direction, rm)
        worst_q = max(worst_q, stress_invariants(sig).q - qy)
    worst_fd = 0.0
    for s in (0.7, 1.4):
        eps = float(s) * direction
        fd = fd_tensor_derivative(lambda x: reconstruct_stress(x, rm), eps)
        worst_fd = max(worst_fd, rel4(consistent_tangent(eps, rm), fd))
    ok = worst_q <= 1e-10 and worst_fd <= 1e-4
    _report(8, ok,
            "radial-return path stays on or inside the yield surface: "
            f"max q - q_y = {worst_q:.2e} (tol 1e-10), tangent-vs-FD on both "
            f"sides = {worst_fd:.2e} (tol 1e-4)")


def test_criterion_9_cli_determinism_and_throughput(tmp_path):
    runs = [subprocess.run(
        [sys.executable, "-m", "spectens", "verify", "--seed", "42"],
        capture_output=True, text=True, timeout=120) for _ in range(2)]
    deterministic = (runs[0].returncode == 0 and runs[1].returncode == 0
                     and runs[0].stdout == runs[1].stdout)
    rng = np.random.default_rng(109)
    src = tmp_path / "bulk.jsonl"
    src.write_text("".join(
        json.dumps({"id": k, "T": [float(x) for x in rng.standard_normal(6)]}) + "\n"
        for k in range(10_000)))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "spectens", "basis",
         "--input", str(src), "--output", str(tmp_path / "out.jsonl")],
        capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    ok = deterministic and proc.returncode == 0 and elapsed < 2.0
    _report(9, ok,
            "seeded self-check is byte-identical across runs "
            f"(identical={deterministic}); 1e4-record basis run took "
            f"{elapsed:.2f} s (budget 2 s)")
