"""Seeded record generators for the three benchmark workloads.

Every workload mixes the three eigenvalue branches in exact proportions:
85% distinct, 10% double (two equal eigenvalues in a random orientation)
and 5% triple.  The same (workload, seed, size) always gives byte-identical
JSON lines; the program under test receives only those lines.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from spectens import (
    SymTensor2,
    consistent_tangent,
    log_strain,
    reconstruct_stress,
    spectrum,
    vonmises_demo_map,
)

KINDS = ("distinct", "double", "triple")


def branch_of(tag: str) -> str:
    """The KINDS entry of a spectens multiplicity tag."""
    return "double" if tag.startswith("double") else tag

# Radial-return material of the stress workload: bulk K, shear G, yield q_y.
BULK, SHEAR, YIELD_Q = 2.0, 1.0, 0.02

_SHIFTS = np.array([2.0 * math.pi / 3.0, 0.0, -2.0 * math.pi / 3.0])


@dataclass(frozen=True)
class Batch:
    """Generated records: JSON lines, the branch each was built on, the
    numbers carried by each record (T components or row-major F), and the
    indices of the records that probe a known defect."""

    lines: list[str]
    kinds: list[str]
    values: list[list[float]]
    probes: frozenset = frozenset()

    def text(self) -> str:
        return "".join(line + "\n" for line in self.lines)


def branch_plan(rng, n: int) -> list[str]:
    """Exactly 85/10/5 % distinct/double/triple, in seeded random order."""
    if n <= 0 or n % 20:
        raise ValueError(f"record count must be a positive multiple of 20, got {n}")
    kinds = ["distinct"] * (n * 17 // 20) + ["double"] * (n // 10) + ["triple"] * (n // 20)
    return [kinds[i] for i in rng.permutation(n)]


def _rotations(rng, n: int) -> np.ndarray:
    """n uniform random rotations from normalised quaternions, shape (n, 3, 3)."""
    q = rng.standard_normal((n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = q.T
    r = np.empty((n, 3, 3))
    r[:, 0] = np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], 1)
    r[:, 1] = np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], 1)
    r[:, 2] = np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], 1)
    return r


def _principal(rng, kind: str, lo: float, hi: float, gap: float) -> np.ndarray:
    """Three values in [lo, hi]: pairwise at least gap apart (distinct), two
    equal and the third at least gap away (double), or all equal (triple)."""
    if kind == "triple":
        return np.full(3, rng.uniform(lo, hi))
    while True:
        e = rng.uniform(lo, hi, 3)
        if kind == "double":
            e[1] = e[0]
            if abs(e[2] - e[0]) >= gap:
                return e
        else:
            s = np.sort(e)
            if s[1] - s[0] >= gap and s[2] - s[1] >= gap:
                return e


def _sym6(m: np.ndarray) -> list[float]:
    return [float(m[0, 0]), float(m[1, 1]), float(m[2, 2]),
            float(0.5 * (m[0, 1] + m[1, 0])), float(0.5 * (m[0, 2] + m[2, 0])),
            float(0.5 * (m[1, 2] + m[2, 1]))]


def _probe_panel(m: int) -> list[list[float]]:
    """m distinct-branch T with norms stratified log-uniformly over
    1e100..1e120.  The panel depends on m only, not on the seed, so that
    the number of records failing on the known overflow of the closed form
    (above about 1e103) is a property of the code and not of the draw."""
    rng = np.random.default_rng([0, 1, 2])
    rots = _rotations(rng, m)
    out = []
    for slot in range(m):
        e = _principal(rng, "distinct", -1.0, 1.0, 0.05)
        e *= 10.0 ** (100.0 + 20.0 * (slot + rng.uniform()) / m) / np.linalg.norm(e)
        out.append(_sym6(rots[slot] @ np.diag(e) @ rots[slot].T))
    return out


def _basis_values(rng, kinds):
    """T with norm log-uniform in 1e-3..1e3.  1% of the records, at seeded
    places among the distinct ones, are the extreme-magnitude probe panel."""
    n = len(kinds)
    rots = _rotations(rng, n)
    distinct = [i for i, k in enumerate(kinds) if k == "distinct"]
    panel = _probe_panel(n // 100)
    places = rng.choice(len(distinct), len(panel), replace=False)
    extreme = {distinct[j]: t for j, t in zip(places, panel)}
    out = []
    for i, kind in enumerate(kinds):
        if i in extreme:
            out.append(extreme[i])
            continue
        e = _principal(rng, kind, -1.0, 1.0, 0.05)
        e *= math.exp(rng.uniform(math.log(1e-3), math.log(1e3))) / np.linalg.norm(e)
        out.append(_sym6(rots[i] @ np.diag(e) @ rots[i].T))
    return out, frozenset(extreme)


def _logstrain_values(rng, kinds):
    """F = R1 diag(stretches) R2 with stretches in [0.5, 2]."""
    n = len(kinds)
    r1, r2 = _rotations(rng, n), _rotations(rng, n)
    out = []
    for i, kind in enumerate(kinds):
        f = r1[i] @ np.diag(_principal(rng, kind, 0.5, 2.0, 0.05)) @ r2[i]
        out.append([float(x) for x in f.reshape(-1)])
    return out, frozenset()


def _stress_values(rng, kinds):
    """Strain predictors: volumetric part in +/-[1e-3, 1e-2]; deviator with a
    Lode angle kept 0.1 rad inside (-pi/6, pi/6) (distinct), uniaxial
    (double) or zero (triple).  Exactly half of the non-triple predictors lie
    past yield, at 1.1..3 times the yield load, the others at 0.3..0.9, so no
    finite-difference stencil crosses the yield kink."""
    n = len(kinds)
    rots = _rotations(rng, n)
    shaped = [i for i, k in enumerate(kinds) if k != "triple"]
    plastic = set(shaped[j] for j in rng.permutation(len(shaped))[: len(shaped) // 2])
    out = []
    for i, kind in enumerate(kinds):
        ev = rng.uniform(1e-3, 1e-2) * (1.0 if rng.uniform() < 0.5 else -1.0)
        d = np.zeros(3)
        if kind != "triple":
            if kind == "distinct":
                theta = rng.uniform(-math.pi / 6 + 0.1, math.pi / 6 - 0.1)
                d = 2.0 / math.sqrt(3.0) * np.sin(theta + _SHIFTS)
            else:
                sign = 1.0 if rng.uniform() < 0.5 else -1.0
                d = sign * np.array([2.0, -1.0, -1.0]) / math.sqrt(3.0)
            load = rng.uniform(1.1, 3.0) if i in plastic else rng.uniform(0.3, 0.9)
            # Unit-J2 deviator scaled so that 3 G eps_q = load * q_y.
            d *= load * YIELD_Q * math.sqrt(3.0) / (6.0 * SHEAR)
        out.append(_sym6(rots[i] @ np.diag(ev / 3.0 + d) @ rots[i].T))
    return out, frozenset()


def _stress_call():
    rm = vonmises_demo_map(BULK, SHEAR, YIELD_Q)

    def call(t):
        return reconstruct_stress(t, rm), consistent_tangent(t, rm)
    return call


@dataclass(frozen=True)
class Workload:
    name: str
    index: int                      # separates the workloads' random streams
    command: tuple[str, ...]        # CLI subcommand and its flags
    key: str                        # record field: "T" or "F"
    batch: int                      # records per timed CLI run
    n_trace: int                    # records in the traced and profiled passes
    n_calls: int                    # records called in-process, each many times
    draw: Callable                  # (rng, kinds) -> (per-record values, probe indices)
    prepare: Callable               # record values -> library input
    make_call: Callable[[], Callable]   # the public entry point, one call per record

    def generate(self, seed: int, n: int) -> Batch:
        rng = np.random.default_rng([seed, self.index])
        kinds = branch_plan(rng, n)
        values, probes = self.draw(rng, kinds)
        lines = [json.dumps({"id": k, self.key: v}) for k, v in enumerate(values)]
        return Batch(lines, kinds, values, probes)


WORKLOADS = {w.name: w for w in (
    Workload("basis_bulk", 1, ("basis",), "T", 20000, 4000, 2000,
             _basis_values, lambda v: SymTensor2(*v), lambda: spectrum),
    Workload("logstrain_tangent", 2, ("logstrain",), "F", 3000, 600, 1000,
             _logstrain_values, list, lambda: log_strain),
    Workload("stress_return", 3,
             ("stress", "--bulk", repr(BULK), "--shear", repr(SHEAR),
              "--yield-stress", repr(YIELD_Q)),
             "T", 3000, 1200, 1000,
             _stress_values, lambda v: SymTensor2(*v), _stress_call),
)}
