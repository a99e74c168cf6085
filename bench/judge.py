"""Correctness judge for CLI output, run outside every timed region.

Each answered record is compared with an independent reference: the cyclic
Jacobi eigensolver of spectens.oracle for eigenvalues, bases and the
logarithmic strain, and the closed-form radial return for stress.  Tangents
of a seeded sample are compared with oracle.fd_tensor_derivative applied to
those references.  Tolerances are the ones pinned in
tests/test_acceptance.py.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from spectens import SymTensor2
from spectens.oracle import fd_tensor_derivative, jacobi_eigen, projector

from workloads import BULK, SHEAR, YIELD_Q, branch_of

LAMBDA_TOL = 1e-10     # eigenvalue error over |T| (criterion 1)
PAIR_TOL = 1e-7        # spread inside a repeated group over |T| (the CLI's --tol-gap)
BASIS_TOL = 1e-8       # basis error (criterion 2)
STRAIN_TOL = 1e-9      # log strain error over max(1, |eps|) (criterion 5)
STRESS_TOL = 1e-9      # stress error over max(1, |sigma|) (criterion 7)
TANGENT_TOL = 1e-4     # relative tangent error against differences (criteria 3, 4, 8)

# Indices of the eigenvalues that share a basis, by multiplicity tag.
_GROUPS = {
    "distinct": ((0,), (1,), (2,)),
    "double_high_unique": ((0,), (1, 2)),
    "double_low_unique": ((0, 1), (2,)),
    "triple": ((0, 1, 2),),
}
_IDENTITY = SymTensor2(1.0, 1.0, 1.0, 0.0, 0.0, 0.0)


@dataclass
class Verdict:
    """errors: records the CLI answered with an error object.  rejected:
    index -> reason, for answered records the references disagree with.
    broken: anything that makes the whole run untrustworthy (wrong line
    count or ids, an exit status that does not match the records).  probes:
    indices of the records that probe a known defect; their errors and
    rejections count as failures but do not make the run incorrect."""

    probes: frozenset = frozenset()
    errors: int = 0
    rejected: dict = field(default_factory=dict)
    broken: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.errors + len(self.rejected)

    @property
    def correct(self) -> bool:
        return not self.broken and self.rejected.keys() <= self.probes


def _norm(t: SymTensor2) -> float:
    a = t.as_tuple()
    return math.sqrt(sum(x * x for x in a[:3]) + 2.0 * sum(x * x for x in a[3:]))


def _dist(a, b) -> float:
    return _norm(SymTensor2(*a) - SymTensor2(*b))


def _rel4(got: list[float], want) -> float:
    ref = want.as_list()
    num = math.sqrt(sum((x - y) ** 2 for x, y in zip(got, ref)))
    return num / math.sqrt(sum(y * y for y in ref))


def left_cauchy_green(f) -> SymTensor2:
    return SymTensor2(*(sum(f[3 * i + k] * f[3 * j + k] for k in range(3))
                        for i, j in ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))))


def half_log(b: SymTensor2) -> SymTensor2:
    """ln(B)/2 by Jacobi eigenpairs: sum of ln(lam_i)/2 n_i x n_i."""
    out = SymTensor2(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    for pair in jacobi_eigen(b):
        out = out + (0.5 * math.log(pair.value)) * projector(pair)
    return out


def radial_return(eps: SymTensor2) -> SymTensor2:
    """sigma = K tr(eps) I + (2 q / (3 eps_q)) dev(eps), q = min(3 G eps_q, q_y)."""
    tr = eps.trace()
    dev = eps - (tr / 3.0) * _IDENTITY
    eps_q = math.sqrt(2.0 / 3.0) * _norm(dev)
    ratio = 2.0 * SHEAR
    if 3.0 * SHEAR * eps_q >= YIELD_Q:
        ratio = 2.0 * YIELD_Q / (3.0 * eps_q)
    return (BULK * tr) * _IDENTITY + ratio * dev


def _check_basis(t: SymTensor2, kind: str, rec: dict) -> str | None:
    tag = rec["multiplicity"]
    if branch_of(tag) != kind:
        return f"classified {tag}, built {kind}"
    pairs = jacobi_eigen(t)
    scale = _norm(t)
    for group in _GROUPS[tag]:
        # The closed form resolves a repeated eigenvalue only to about
        # sqrt(eps) of the spread; classification allows PAIR_TOL, and the
        # group mean, which is what multiplies the shared basis, must match.
        lam = [rec["lambda"][i] for i in group]
        mean = sum(lam) / len(lam)
        ref = sum(pairs[i].value for i in group) / len(group)
        if abs(mean - ref) > LAMBDA_TOL * scale or max(lam) - min(lam) > PAIR_TOL * scale:
            return f"eigenvalues {lam!r} vs {[pairs[i].value for i in group]!r}"
        want = projector(pairs[group[0]])
        for i in group[1:]:
            want = want + projector(pairs[i])
        want = (1.0 / len(group)) * want
        for i in group:
            if _dist(rec["bases"][i], want.as_tuple()) > BASIS_TOL:
                return f"basis {i} off by {_dist(rec['bases'][i], want.as_tuple()):.2e}"
    return None


def _check_logstrain(f, kind: str, rec: dict, with_tangent: bool) -> str | None:
    if branch_of(rec["branch"]) != kind:
        return f"classified {rec['branch']}, built {kind}"
    b = left_cauchy_green(f)
    want = half_log(b)
    err = _dist(rec["eps"], want.as_tuple())
    if err > STRAIN_TOL * max(1.0, _norm(want)):
        return f"strain off by {err:.2e}"
    if with_tangent:
        err = _rel4(rec["deps_dB"], fd_tensor_derivative(half_log, b))
        if err > TANGENT_TOL:
            return f"tangent off by {err:.2e}"
    return None


def _check_stress(eps: SymTensor2, kind: str, rec: dict, with_tangent: bool) -> str | None:
    want = radial_return(eps)
    err = _dist(rec["sigma"], want.as_tuple())
    if err > STRESS_TOL * max(1.0, _norm(want)):
        return f"stress off by {err:.2e}"
    if with_tangent:
        err = _rel4(rec["tangent"], fd_tensor_derivative(radial_return, eps))
        if err > TANGENT_TOL:
            return f"tangent off by {err:.2e}"
    return None


def judge(workload: str, batch, out_text: str, status: int, sample=frozenset()) -> Verdict:
    """Judge one CLI run on batch.  Tangents are differenced only for the
    record indices in sample."""
    v = Verdict(batch.probes)
    lines = out_text.splitlines()
    if len(lines) != len(batch.lines):
        v.broken.append(f"{len(lines)} output lines for {len(batch.lines)} records")
        return v
    for k, (line, kind, vals) in enumerate(zip(lines, batch.kinds, batch.values)):
        try:
            rec = json.loads(line)
            if rec.get("id") != k:
                v.broken.append(f"line {k + 1} has id {rec.get('id')!r}")
                continue
            if "error" in rec:
                v.errors += 1
                continue
            if workload == "basis_bulk":
                why = _check_basis(SymTensor2(*vals), kind, rec)
            elif workload == "logstrain_tangent":
                why = _check_logstrain(vals, kind, rec, k in sample)
            else:
                why = _check_stress(SymTensor2(*vals), kind, rec, k in sample)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            why = f"malformed output: {exc!r}"
        if why:
            v.rejected[k] = why
    if status != (2 if v.errors else 0):
        v.broken.append(f"exit status {status} with {v.errors} error records")
    return v
