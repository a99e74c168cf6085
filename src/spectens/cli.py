"""JSON-lines command-line front end.

Each input line is one record: a JSON object with an "id" and exactly one of
"T" (six components, order 11,22,33,12,13,23) or "F" (row-major 3x3
deformation gradient, from which B = F F^T is formed).  Output is one JSON
object per record, in input order; records are evaluated and written chunk
by chunk.  A record that fails, also one whose result is not finite,
produces {"id": ..., "error": ...} and flips the exit status to 2; exit
status 1 is reserved for I/O-level failures.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from itertools import chain, compress

import numpy as np

from .errors import ContractError, DegeneracyError
from .isofunc import _apply_rows, isotropic_function, square_map
from .logstrain import (_HALF_LOG, _cauchy_green_terms, _not_spd, left_cauchy_green,
                        log_strain_from_b)
from .plasticity import _stress_tangent_rows, stress_and_tangent, vonmises_demo_map
from .spectral import _MULTS, MultTag, _spectrum_rows, _spin_sum, spectrum, spin
from .tensor_core import SymTensor2, _invariant_rows, invariants, norm

_VERIFY_BASIS_TOL = 1e-8
_VERIFY_TANGENT_TOL = 1e-4

# Records parsed, evaluated as arrays and written together.  Large enough
# that the per-chunk cost of the array kernels is spread thin, small enough
# that the texts of a chunk's distinct tangent numbers (_row_numbers) fit in
# the heap the kernels just freed: at 1,024 lines they raised the peak memory.
_CHUNK = 512

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


def _dispatch(cmd: str, t: SymTensor2, rm) -> tuple[list, object]:
    """The numbers of the record of cmd at t, in output order, and its extra
    field: theta_defined for invariants, None for stress, else the
    multiplicity.  From the scalar library calls."""
    if cmd == "invariants":
        inv = invariants(t)
        return [inv.i1, inv.i2, inv.i3, inv.j2, inv.j3, inv.theta], inv.theta_defined
    if cmd == "logstrain":
        res = log_strain_from_b(t)
        return [*res.eps.as_tuple(), *res.deps_db.as_list()], res.branch
    if cmd == "stress":
        sig, tan = stress_and_tangent(t, rm)
        return [*sig.as_tuple(), *tan.as_list()], None
    sp = spectrum(t)
    if cmd == "spin":
        if sp.mult.tag is not MultTag.DISTINCT:
            raise DegeneracyError(
                "basis spins are defined only for distinct eigenvalues; "
                f"input classified as {sp.mult.tag.value}")
        return [x for i in range(3) for x in spin(t, sp, i).as_list()], sp.mult
    if cmd == "basis":
        return [*sp.lam, *(x for b in sp.bases for x in b.as_tuple())], sp.mult
    return list(sp.lam), sp.mult


def _dispatch_rows(cmd: str, t: SymTensor2, rm):
    """_dispatch on the rows of t, whose components are (n,) arrays: (mask of
    the rows it holds for, (n, k) numbers, (n,) position of each row's extra
    field in the tuple of extra fields that ends the result).  It leaves out
    the rows on which the scalar calls would raise or warn, and for spin the
    rows off the distinct branch, where no spin is defined."""
    if cmd == "invariants":
        inv, _, _, ok = _invariant_rows(t)
        vals = np.stack((inv.i1, inv.i2, inv.i3, inv.j2, inv.j3, inv.theta), 1)
        return ok, vals, inv.theta_defined, (False, True)
    sp, ok = _spectrum_rows(t)
    kind, extras = sp.mult, _MULTS
    if cmd in ("eigen", "basis"):
        blocks = list(sp.lam)
        if cmd == "basis":
            blocks += [x for b in sp.bases for x in b.as_tuple()]
    elif cmd == "spin":
        ok = ok & (kind == 0)
        blocks = [_spin_sum(t, sp, [float(k == i) for k in range(3)]) for i in range(3)]
    elif cmd == "logstrain":
        eps, deps, ok = _apply_rows(t, sp, _HALF_LOG, ok & ~_not_spd(sp.lam))
        blocks = [eps, deps]
    else:
        sig, tan, ok = _stress_tangent_rows(t, sp, rm, ok)
        blocks, kind, extras = [sig, tan], np.zeros_like(kind), (None,)
    return ok, np.hstack([b.reshape(len(ok), -1) for b in blocks]), kind, extras


# Each command's output record after its id, field by field: a field of
# numbers as (name, shape), with shape () for one number, (n,) for a list
# and (r, n) for r lists; a field made from the extra field by its name.
_LAYOUT = {
    "invariants": [*((k, ()) for k in ("I1", "I2", "I3", "J2", "J3", "theta")),
                   "theta_defined"],
    "eigen": [("lambda", (3,)), "multiplicity", "unique_index"],
    "basis": [("lambda", (3,)), "multiplicity", "unique_index", ("bases", (3, 6))],
    "spin": ["multiplicity", ("spins", (3, 36))],
    "logstrain": ["branch", ("eps", (6,)), ("deps_dB", (36,))],
    "stress": [("sigma", (6,)), ("tangent", (36,))],
}


@functools.cache
def _template(cmd: str, extra) -> str:
    """The output line of cmd with extra field extra (see _dispatch), as a
    %-template of the JSON text of the id and then the record's numbers,
    each a float or its text (see _row_numbers).  %s of a float is
    float.__repr__, which is what json writes for one."""
    parts = ['{"id": %s']
    for field in _LAYOUT[cmd]:
        if isinstance(field, str):
            value = (extra if field == "theta_defined" else
                     extra.unique_index if field == "unique_index" else extra.tag.value)
            parts.append(f'"{field}": {json.dumps(value)}')
        else:
            text = "%s"
            for n in reversed(field[1]):
                text = "[" + ", ".join([text] * n) + "]"
            parts.append(f'"{field[0]}": {text}')
    return ", ".join(parts) + "}\n"


def _row_numbers(cmd: str, vals: np.ndarray) -> list[list]:
    """The rows of the (m, k) array vals of cmd's numbers as lists for its
    template: floats, but the entries of a last field of 6x6 tangents as
    their text.  Tangents repeat numbers, by symmetry and across isotropic
    records, so each distinct bit pattern among them (-0.0 is not 0.0) is
    converted once, and its rows share that one str."""
    field = _LAYOUT[cmd][-1]
    if isinstance(field, str) or field[1][-1] != 36:
        return vals.tolist()
    w = math.prod(field[1])
    bits, where = np.unique(vals[:, -w:].view(np.int64), return_inverse=True)
    texts = np.array(list(map(repr, bits.view(float).tolist())), dtype=object)
    return [row + tail for row, tail in
            zip(vals[:, :-w].tolist(), texts[where].reshape(-1, w).tolist())]


def _id_text(rec_id) -> str:
    """The JSON text of rec_id, or ContractError if _checked_id refuses it."""
    return str(rec_id) if type(rec_id) is int else json.dumps(_checked_id(rec_id))


def _checked_id(rec_id):
    """rec_id, or ContractError if it holds NaN or Infinity, which JSON lacks,
    or a lone surrogate (a byte that is not UTF-8 is read as one), which
    UTF-8 cannot encode."""
    try:
        if type(rec_id) is str:
            rec_id.encode()
        elif not isinstance(rec_id, int):
            json.JSONEncoder(ensure_ascii=False, allow_nan=False).encode(rec_id).encode()
    except UnicodeEncodeError:
        raise ContractError("'id' holds a byte that is not UTF-8 or a lone surrogate") from None
    except ValueError:
        raise ContractError("'id' holds NaN or Infinity, which JSON does not allow") from None
    return rec_id


def _checked_finite(cmd: str, row) -> list[float]:
    """row as floats, or DegeneracyError naming the first field of cmd's
    record with a number that overflowed: JSON has no Infinity or NaN."""
    row = [float(x) for x in row]
    start = 0
    for field in _LAYOUT[cmd]:
        if not isinstance(field, str):
            end = start + math.prod(field[1])
            if not all(map(math.isfinite, row[start:end])):
                raise DegeneracyError(f"result field {field[0]!r} is not finite: "
                                      "the input overflows the closed form")
            start = end
    return row


def _error_line(rec_id, exc: Exception) -> str:
    return json.dumps({"id": rec_id, "error": str(exc) or type(exc).__name__}) + "\n"


def _scalar_line(cmd: str, rec, rec_id, rm) -> tuple[bool, str]:
    """(whether it succeeded, output line) of the parsed record rec from the
    scalar library calls; rec_id is the id of a record without one."""
    try:
        if not isinstance(rec, dict):
            raise ContractError("record must be a JSON object")
        text = _id_text(rec["id"]) if "id" in rec else json.dumps(rec_id)
        rec_id = rec.get("id", rec_id)
        row, extra = _dispatch(cmd, _record_tensor(rec), rm)
        return True, _template(cmd, extra) % (text, *_checked_finite(cmd, row))
    except Exception as exc:
        return False, _error_line(rec_id, exc)


_NUMBER_TYPES = {int, float}


def _columns(recs: list) -> tuple[list[int], np.ndarray]:
    """(positions in recs of the records that pass the checks of
    _record_tensor, their tensors as a (6, m) array), checked and stacked
    for all records together.  B = F F^T comes from the formula body of
    left_cauchy_green.  OverflowError for an int past the float range."""
    picked, comps = [], []
    for key, other, n in (("T", "F", 6), ("F", "T", 9)):
        pos = [j for j, r in enumerate(recs) if type(r) is dict and key in r and other not in r]
        vals = [recs[j][key] for j in pos]
        # bool is a type of its own, so a bool fails the type check.
        if not (set(map(type, vals)) <= {list} and set(map(len, vals)) <= {n}
                and set(map(type, chain.from_iterable(vals))) <= _NUMBER_TYPES):
            good = [type(v) is list and len(v) == n and set(map(type, v)) <= _NUMBER_TYPES
                    for v in vals]
            pos, vals = list(compress(pos, good)), list(compress(vals, good))
        x = np.array(vals, dtype=float).reshape(-1, n).T
        ok = np.isfinite(x).all(0)
        if key == "F":
            det, b = _cauchy_green_terms(x.reshape(3, 3, -1))
            x, ok = np.array(b), ok & (det > 0.0)
        picked += compress(pos, ok.tolist())
        comps.append(x[:, ok])
    return picked, np.hstack(comps)


_SCAN_ONCE = json.JSONDecoder().scan_once


def _loads(line: str):
    """json.loads(line), read by the decoder's scanner when the value it
    scans from the start of line ends where line ends, and else by
    json.loads itself, which gives the record or its exact error."""
    try:
        rec, end = _SCAN_ONCE(line, 0)
        if end == len(line):
            return rec
    except Exception:
        pass
    return json.loads(line)


def _run_chunk(cmd: str, rm, first: int, lines: list[str]) -> tuple[bool, str]:
    """(whether every record of cmd succeeded, output text) of one chunk of
    input lines, the first of which has number first, with, for stress, the
    return map rm.  The records are checked, evaluated and written as
    columns, with each distinct tangent number of the chunk converted to
    text once (_row_numbers); a record that fails a check or a guard of the
    arrays, or all of them if the checks raise, goes through _dispatch, so
    that its output and errors are the scalar path's."""
    outs = [""] * len(lines)
    all_ok = True
    recs, places = [], []
    for k, line in enumerate(lines):
        try:
            recs.append(_loads(line))
            places.append(k)
        except Exception as exc:
            if line.strip():
                outs[k] = _error_line(f"line {first + k}", exc)
                all_ok = False
    scalar = [True] * len(recs)
    with np.errstate(all="ignore"):
        try:
            picked, comps = _columns(recs)
        except OverflowError:
            picked = []
        if picked:
            ok, vals, kind, extras = _dispatch_rows(cmd, SymTensor2(*comps), rm)
            ok &= np.isfinite(vals).all(1)
            templates = [_template(cmd, e) for e in extras]
            good = np.flatnonzero(ok)
            rows = _row_numbers(cmd, vals[good])
            for j, row, kind_j in zip(good.tolist(), rows, kind[good].tolist()):
                i = picked[j]
                rec = recs[i]
                try:
                    text = (_id_text(rec["id"]) if "id" in rec
                            else f'"line {first + places[i]}"')
                except ContractError:
                    continue
                outs[places[i]] = templates[kind_j] % (text, *row)
                scalar[i] = False
    for i in compress(range(len(recs)), scalar):
        ok_i, outs[places[i]] = _scalar_line(cmd, recs[i], f"line {first + places[i]}", rm)
        all_ok &= ok_i
    return all_ok, "".join(outs)


def _read_lines(path) -> list[str]:
    """The lines of the input file at path, or of stdin, in universal newline
    mode: only LF, CR and CRLF end a line.  JSON allows the other line
    breaks of str.splitlines, such as U+2028, raw inside a string.  Both
    are UTF-8 (RFC 8259), whatever the locale; a byte that does not decode
    is kept as a lone surrogate, so that it fails or passes with its own
    line only."""
    # On POSIX, sys.stdin itself translates no line ends.
    with open(sys.stdin.fileno() if path is None else path, "r", encoding="utf-8",
              errors="surrogateescape", closefd=path is not None) as fh:
        lines = fh.read().split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def _output(path):
    """stdout, or the file at path opened for writing."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


def _run_records(args, rm) -> int:
    lines = _read_lines(args.input)
    all_ok = True
    with _output(args.output) as out:
        for i in range(0, len(lines), _CHUNK):
            ok, text = _run_chunk(args.command, rm, i + 1, lines[i:i + _CHUNK])
            out.write(text)
            all_ok &= ok
    return 0 if all_ok else 2


def _draw_separated(rng) -> SymTensor2:
    """Random symmetric tensor whose eigenvalue gaps exceed 1e-4 of the spread."""
    from . import oracle

    while True:
        t = SymTensor2(*(float(v) for v in rng.standard_normal(6)))
        pairs = oracle.jacobi_eigen(t)
        lam = [p.value for p in pairs]
        spread = lam[0] - lam[2]
        if spread > 0.0 and min(lam[0] - lam[1], lam[1] - lam[2]) >= 1e-4 * spread:
            return t


def _run_verify(args) -> int:
    # The test oracle stays off the evaluation path: only verify loads it.
    from . import oracle

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
        diff = (fd.m - tan.m).ravel().tolist()
        tan_dev = (math.sqrt(sum(x * x for x in diff))
                   / math.sqrt(sum(x * x for x in tan.as_list())))
        max_basis = max(max_basis, basis_dev)
        max_tan = max(max_tan, tan_dev)
        lines.append(json.dumps({"id": k, "basis_dev": basis_dev, "tangent_dev": tan_dev}))
    passed = max_basis <= _VERIFY_BASIS_TOL and max_tan <= _VERIFY_TANGENT_TOL
    lines.append(json.dumps({"id": "summary", "count": args.count,
                             "max_basis_dev": max_basis, "max_tangent_dev": max_tan,
                             "pass": passed}))
    with _output(args.output) as out:
        out.write("".join(line + "\n" for line in lines))
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
        # Accepted and ignored, as long as bench/measure.py passes it.
        q.add_argument("--parallel", type=int, default=1, help=argparse.SUPPRESS)
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        if args.count < 1:
            parser.error(f"verify: --count must be at least 1, got {args.count}")
        if args.seed < 0:
            parser.error(f"verify: --seed must be at least 0, got {args.seed}")
    else:
        if args.parallel < 1:
            parser.error(f"{args.command}: --parallel must be at least 1, got {args.parallel}")
        try:
            rm = (vonmises_demo_map(args.bulk, args.shear, args.yield_stress)
                  if args.command == "stress" else None)
        except ContractError as exc:
            parser.error(f"{args.command}: {exc}")
    try:
        if args.command == "verify":
            return _run_verify(args)
        return _run_records(args, rm)
    except OSError as exc:
        print(f"spectens: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
