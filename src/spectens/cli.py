"""JSON-lines command-line front end.

Each input line is one record: a JSON object with an "id" and exactly one of
"T" (six components, order 11,22,33,12,13,23) or "F" (row-major 3x3
deformation gradient, from which B = F F^T is formed).  Output is one JSON
object per record, in input order regardless of --parallel.  A record that
fails produces {"id": ..., "error": ...} and flips the exit status to 2;
exit status 1 is reserved for I/O-level failures.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from multiprocessing import Pool

from . import oracle
from .errors import ContractError, DegeneracyError
from .isofunc import isotropic_function, square_map
from .logstrain import left_cauchy_green, log_strain_from_b
from .plasticity import stress_and_tangent, vonmises_demo_map
from .spectral import ClassifyTols, MultTag, spectrum, spin
from .tensor_core import TAU_ABS, TAU_GAP, TAU_REL, SymTensor2, invariants, norm

_VERIFY_BASIS_TOL = 1e-8
_VERIFY_TANGENT_TOL = 1e-4

# Per-process state installed by _init_worker so records can be dispatched
# by a bare top-level function under multiprocessing.
_CFG: dict = {}
_TOLS: ClassifyTols = ClassifyTols()
_RETURN_MAP = None


def _init_worker(cfg: dict) -> None:
    global _CFG, _TOLS, _RETURN_MAP
    _CFG = cfg
    _TOLS = ClassifyTols(tau_abs=TAU_ABS, tau_rel=cfg["tau_rel"], tau_gap=cfg["tau_gap"])
    if cfg["command"] == "stress":
        _RETURN_MAP = vonmises_demo_map(cfg["bulk"], cfg["shear"], cfg["yield_q"])


def _finite_floats(vals, n: int, label: str) -> list[float]:
    if not isinstance(vals, list) or len(vals) != n:
        raise ContractError(f"'{label}' must be a list of {n} numbers")
    out = []
    for v in vals:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ContractError(f"'{label}' must contain only numbers")
        x = float(v)
        if not math.isfinite(x):
            raise ContractError(f"'{label}' contains a non-finite value")
        out.append(x)
    return out


def _record_tensor(rec: dict) -> SymTensor2:
    has_t = "T" in rec
    has_f = "F" in rec
    if has_t == has_f:
        raise ContractError("record must contain exactly one of 'T' or 'F'")
    if has_t:
        return SymTensor2(*_finite_floats(rec["T"], 6, "T"))
    return left_cauchy_green(_finite_floats(rec["F"], 9, "F"))


def _dispatch(rec: dict, rec_id) -> dict:
    t = _record_tensor(rec)
    cmd = _CFG["command"]
    if cmd == "invariants":
        inv = invariants(t)
        return {"id": rec_id, "I1": inv.i1, "I2": inv.i2, "I3": inv.i3,
                "J2": inv.j2, "J3": inv.j3, "theta": inv.theta,
                "theta_defined": inv.theta_defined}
    if cmd == "logstrain":
        res = log_strain_from_b(t, _TOLS)
        return {"id": rec_id, "branch": res.branch.tag.value,
                "eps": [float(x) for x in res.eps.as_tuple()],
                "deps_dB": res.deps_db.as_list()}
    if cmd == "stress":
        sig, tan = stress_and_tangent(t, _RETURN_MAP, _TOLS)
        return {"id": rec_id, "sigma": [float(x) for x in sig.as_tuple()],
                "tangent": tan.as_list()}
    sp = spectrum(t, _TOLS)
    if cmd == "eigen":
        return {"id": rec_id, "lambda": list(sp.lam),
                "multiplicity": sp.mult.tag.value,
                "unique_index": sp.mult.unique_index}
    if cmd == "basis":
        return {"id": rec_id, "lambda": list(sp.lam),
                "multiplicity": sp.mult.tag.value,
                "unique_index": sp.mult.unique_index,
                "bases": [list(b.as_tuple()) for b in sp.bases]}
    if cmd == "spin":
        if sp.mult.tag is not MultTag.DISTINCT:
            raise DegeneracyError(
                "basis spins are defined only for distinct eigenvalues; "
                f"input classified as {sp.mult.tag.value}")
        return {"id": rec_id, "multiplicity": sp.mult.tag.value,
                "spins": [spin(t, sp, i).as_list() for i in range(3)]}
    raise ContractError(f"unknown command {cmd!r}")


def _process_item(item: tuple[int, str]) -> tuple[bool, str]:
    lineno, line = item
    if not line.strip():
        return (True, "")
    rec_id = f"line {lineno}"
    try:
        rec = json.loads(line)
        if not isinstance(rec, dict):
            raise ContractError("record must be a JSON object")
        if "id" in rec:
            rec_id = rec["id"]
        return (True, json.dumps(_dispatch(rec, rec_id)))
    except Exception as exc:
        return (False, json.dumps({"id": rec_id, "error": str(exc)}))


def _read_lines(path) -> list[str]:
    if path is None:
        return sys.stdin.read().splitlines()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().splitlines()


def _write_lines(path, lines) -> None:
    text = "".join(line + "\n" for line in lines if line)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _run_records(args) -> int:
    cfg = {"command": args.command, "tau_rel": args.tol_triple, "tau_gap": args.tol_gap}
    if args.command == "stress":
        cfg.update(bulk=args.bulk, shear=args.shear, yield_q=args.yield_stress)
    lines = _read_lines(args.input)
    items = list(enumerate(lines, start=1))
    if args.parallel > 1:
        with Pool(args.parallel, initializer=_init_worker, initargs=(cfg,)) as pool:
            results = pool.map(_process_item, items)
    else:
        _init_worker(cfg)
        results = [_process_item(it) for it in items]
    _write_lines(args.output, (out for _, out in results))
    return 0 if all(ok for ok, _ in results) else 2


def _draw_separated(rng) -> SymTensor2:
    """Random symmetric tensor whose eigenvalue gaps exceed 1e-4 of the spread."""
    while True:
        t = SymTensor2(*(float(v) for v in rng.standard_normal(6)))
        pairs = oracle.jacobi_eigen(t)
        lam = [p.value for p in pairs]
        spread = lam[0] - lam[2]
        if spread > 0.0 and min(lam[0] - lam[1], lam[1] - lam[2]) >= 1e-4 * spread:
            return t


def _run_verify(args) -> int:
    import numpy as np

    rng = np.random.default_rng(args.seed)
    f = square_map()
    lines = []
    max_basis = 0.0
    max_tan = 0.0
    for k in range(args.count):
        t = _draw_separated(rng)
        sp = spectrum(t)
        pairs = oracle.jacobi_eigen(t)
        basis_dev = max(norm(sp.bases[i] - oracle.projector(pairs[i])) for i in range(3))
        _, tan = isotropic_function(t, f)
        fd = oracle.fd_tensor_derivative(lambda x: isotropic_function(x, f)[0], t)
        diff = fd - tan
        tan_dev = (math.sqrt(sum(x * x for x in diff.as_list()))
                   / math.sqrt(sum(x * x for x in tan.as_list())))
        max_basis = max(max_basis, basis_dev)
        max_tan = max(max_tan, tan_dev)
        lines.append(json.dumps({"id": k, "basis_dev": basis_dev, "tangent_dev": tan_dev}))
    passed = max_basis <= _VERIFY_BASIS_TOL and max_tan <= _VERIFY_TANGENT_TOL
    lines.append(json.dumps({"id": "summary", "count": args.count,
                             "max_basis_dev": max_basis, "max_tangent_dev": max_tan,
                             "pass": passed}))
    _write_lines(args.output, lines)
    return 0 if passed else 2


def _build_parser() -> argparse.ArgumentParser:
    from spectens import __version__

    p = argparse.ArgumentParser(
        prog="spectens",
        description="Closed-form spectral tools for symmetric 3x3 tensors, "
                    "one JSON record per line.")
    p.add_argument("--version", action="version", version=f"spectens {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    record_cmds = (
        ("invariants", "principal and deviatoric invariants plus Lode angle"),
        ("eigen", "eigenvalues and multiplicity classification"),
        ("basis", "eigenvalues plus eigenprojection bases"),
        ("spin", "basis derivatives dN_i/dT (distinct spectra only)"),
        ("logstrain", "logarithmic strain and tangent from F or B"),
        ("stress", "demo return-map stress and consistent tangent"),
    )
    for name, help_text in record_cmds:
        q = sub.add_parser(name, help=help_text)
        q.add_argument("--input", default=None, help="input file (default stdin)")
        q.add_argument("--output", default=None, help="output file (default stdout)")
        q.add_argument("--tol-triple", type=float, default=TAU_REL, dest="tol_triple",
                       help="relative eigenvalue-spread floor for the triple branch")
        q.add_argument("--tol-gap", type=float, default=TAU_GAP, dest="tol_gap",
                       help="relative gap floor for the double branch")
        q.add_argument("--parallel", type=int, default=1, metavar="N",
                       help="worker processes (output order is still input order)")
        if name == "stress":
            q.add_argument("--bulk", type=float, default=1.0)
            q.add_argument("--shear", type=float, default=1.0)
            q.add_argument("--yield-stress", type=float, default=1.0, dest="yield_stress")
    v = sub.add_parser("verify", help="self-check against the iterative eigensolver")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--count", type=int, default=100)
    v.add_argument("--output", default=None, help="output file (default stdout)")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _run_verify(args)
        return _run_records(args)
    except OSError as exc:
        print(f"spectens: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
