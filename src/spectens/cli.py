"""JSON-lines command-line front end.

Each input line is one record: a JSON object with an "id" and exactly one of
"T" (six components, order 11,22,33,12,13,23) or "F" (row-major 3x3
deformation gradient, from which B = F F^T is formed).  Output is one JSON
object per record, in input order; records are read, evaluated and written
chunk by chunk, so memory is bounded by a chunk, not by the input.  A
record that fails, also one whose result is not finite, produces
{"id": ..., "error": ...} and flips the exit status to 2; exit status 1 is
reserved for I/O-level failures.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import stat
import sys
from collections.abc import Iterator
from itertools import chain, compress, islice

import numpy as np
import orjson

from .errors import ContractError, DegeneracyError
from .spectral import _MULTS, MultTag, _decompose, _spectrum_rows, _spin_sum, spectrum
from .tensor_core import (_FLOAT_INT, SymTensor2, _cauchy_green_terms, _invariant_rows,
                          _overflow, invariants, left_cauchy_green, norm)

_VERIFY_BASIS_TOL = 1e-8
_VERIFY_TANGENT_TOL = 1e-4

# Lines read, parsed and evaluated as arrays together, and written and
# flushed before the next are read.  Large enough that the per-chunk cost of
# the array kernels is spread thin: at 128 lines _dispatch_rows costs 2-2.5
# times as much per record.
_CHUNK = 512
# Lines of a chunk written out together.  A number's text is a str of its
# own, so the texts of a block (_cells) take several times the memory of
# its numbers; at a whole chunk they set the peak memory, and glibc gave
# their heap back and took it again between chunks.
_BLOCK = 128

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
    multiplicity.  From the scalar library calls, and for spin from one
    _decompose and the spin kernel, as in _dispatch_rows."""
    if cmd == "invariants":
        inv = invariants(t)
        return [inv.i1, inv.i2, inv.i3, inv.j2, inv.j3, inv.theta], inv.theta_defined
    if cmd == "logstrain":
        from .logstrain import log_strain_from_b
        res = log_strain_from_b(t)
        return [*res.eps.as_tuple(), *res.deps_db.as_list()], res.branch
    if cmd == "stress":
        from .plasticity import stress_and_tangent
        sig, tan = stress_and_tangent(t, rm)
        return [*sig.as_tuple(), *tan.as_list()], None
    if cmd == "spin":
        lam, mult, bases, inv, _ = _decompose(t)
        if mult.tag is not MultTag.DISTINCT:
            raise DegeneracyError(
                "basis spins are defined only for distinct eigenvalues; "
                f"input classified as {mult.tag.value}")
        spins = [_spin_sum(t, lam, bases, inv[0], inv[3], [float(k == i) for k in range(3)])
                 for i in range(3)]
        return np.ravel(spins).tolist(), mult
    sp = spectrum(t)
    if cmd == "basis":
        return [*sp.lam, *(x for b in sp.bases for x in b.as_tuple())], sp.mult
    return list(sp.lam), sp.mult


def _dispatch_rows(cmd: str, t: SymTensor2, rm):
    """_dispatch on the rows of t, whose components are (n,) arrays: (mask of
    the rows it holds for, (n, k) numbers, (n,) position of each row's extra
    field in the tuple of extra fields that ends the result).  It leaves out
    the rows on which the scalar calls would raise, and for spin the rows
    off the distinct branch, where no spin is defined."""
    if cmd == "invariants":
        inv = _invariant_rows(t)[0]
        return np.ones(len(inv[0]), dtype=bool), np.stack(inv[:6], 1), inv[6], (False, True)
    dec, ok = _spectrum_rows(t)
    lam, kind, bases, inv, _ = dec
    extras = _MULTS
    if cmd in ("eigen", "basis"):
        blocks = list(lam)
        if cmd == "basis":
            blocks += [x for b in bases for x in b]
    elif cmd == "spin":
        ok = ok & (kind == 0)
        blocks = [_spin_sum(t, lam, bases, inv[0], inv[3], [float(k == i) for k in range(3)])
                  for i in range(3)]
    elif cmd == "logstrain":
        from .logstrain import _log_strain_rows
        eps, deps, ok = _log_strain_rows(t, dec, ok)
        blocks = [eps, deps]
    else:
        from .plasticity import _stress_tangent_rows
        sig, tan, ok = _stress_tangent_rows(t, dec, rm, ok)
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
def _pieces(cmd: str, extras: tuple) -> np.ndarray:
    """The fixed text of cmd's output line, for each extra field of extras
    (see _dispatch), as a (len(extras), k + 2) object array: row e holds the
    text of the line with extra field extras[e] before, between and after
    the JSON text of the id and the text of the record's k numbers."""
    lines = []
    for extra in extras:
        # "\0" marks a place: the JSON text of the values never holds one.
        parts = ['{"id": \0']
        for field in _LAYOUT[cmd]:
            if isinstance(field, str):
                value = (extra if field == "theta_defined" else
                         extra.unique_index if field == "unique_index" else extra.tag.value)
                parts.append(f'"{field}": {json.dumps(value)}')
            else:
                text = "\0"
                for n in reversed(field[1]):
                    text = "[" + ", ".join([text] * n) + "]"
                parts.append(f'"{field[0]}": {text}')
        lines.append((", ".join(parts) + "}\n").split("\0"))
    return np.array(lines, dtype=object)


def _texts(a: np.ndarray) -> np.ndarray:
    """repr of each entry of the float array a, as an object array of a's
    shape.  orjson writes the same shortest round-trip digits as repr, about
    ten times faster, but not the same exponents: 0.00001, 1.5e-9 and 1e16
    where repr writes 1e-05, 1.5e-09 and 1e+16.  So the entries with
    1e-9 <= |x| < 1e-4 or |x| >= 1e16 go through repr; below 1e-9 the
    exponent has two digits or more and the two agree.  ValueError for an
    entry that is not finite, which orjson would write as null."""
    a = np.ascontiguousarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError("a number to be written as JSON is not finite")
    x = np.abs(a)
    text = orjson.dumps(a.ravel(), option=orjson.OPT_SERIALIZE_NUMPY).decode()
    out = np.array(text[1:-1].split(",") if a.size else [], dtype=object)
    far = ((x >= 1e-9) & (x < 1e-4)) | (x >= 1e16)
    out[far.ravel()] = list(map(repr, a[far].tolist()))
    return out.reshape(a.shape)


def _numbers(cmd: str, vals: np.ndarray) -> np.ndarray:
    """The text of each entry of the (m, k) array vals of cmd's numbers, as
    an (m, k) object array: repr of each entry (_texts), one orjson call for
    the chunk.  Tangents repeat numbers, by symmetry and across isotropic
    records, so the entries of a last field of 6x6 tangents get their text
    from a second call on their distinct bit patterns (-0.0 is not 0.0), and
    the rows share that one str."""
    field = _LAYOUT[cmd][-1]
    if isinstance(field, str) or field[1][-1] != 36:
        return _texts(vals)
    w = math.prod(field[1])
    bits, where = np.unique(vals[:, -w:].view(np.int64), return_inverse=True)
    return np.hstack((_texts(vals[:, :-w]), _texts(bits.view(float))[where].reshape(-1, w)))


def _cells(cmd: str, extras: tuple, kind: np.ndarray, ids, vals: np.ndarray) -> np.ndarray:
    """The output lines of cmd for m rows, row j with extra field
    extras[kind[j]], id text ids[j] and the numbers vals[j], as an (m, 2k + 3)
    object array of text whose row j, joined, is line j: the fixed text of
    the line (_pieces) with the id and the k numbers (_numbers) between."""
    numbers = _numbers(cmd, vals)
    out = np.empty((len(ids), 2 * numbers.shape[1] + 3), dtype=object)
    out[:, 0::2] = _pieces(cmd, extras)[kind.astype(np.intp)]
    out[:, 1] = ids
    out[:, 3::2] = numbers
    return out


def _id_text(rec_id) -> str:
    """The JSON text of rec_id, or ContractError if _checked_id refuses it."""
    return str(rec_id) if type(rec_id) is int else json.dumps(_checked_id(rec_id))


def _id_texts(recs: list, numbers: list[int]) -> list:
    """The JSON text of the id of each record of recs, "line n" for a record
    without one, whose line has number n in numbers, and None for an id that
    _checked_id refuses."""
    ids = [rec.get("id") for rec in recs]
    if set(map(type, ids)) <= {int}:
        return list(map(str, ids))
    out = []
    for rec, n in zip(recs, numbers):
        try:
            out.append(_id_text(rec["id"]) if "id" in rec else f'"line {n}"')
        except ContractError:
            out.append(None)
    return out


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
                raise _overflow(field[0])
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
        cells = _cells(cmd, (extra,), np.zeros(1, dtype=np.intp), [text],
                       np.array([_checked_finite(cmd, row)]))
        return True, "".join(cells.ravel().tolist())
    except Exception as exc:
        return False, _error_line(rec_id, exc)


def _float_or_inf(v) -> float:
    """float(v), or inf for an int that float() refuses as past its range."""
    try:
        return float(v)
    except OverflowError:
        return math.inf


def _columns(recs: list) -> tuple[list[int], np.ndarray]:
    """(positions in recs of the records that pass the checks of
    _record_tensor, their tensors as a (6, m) array), checked and stacked
    for all records together.  B = F F^T comes from the formula body of
    left_cauchy_green.  An int past the float range reads as inf, so the
    finite check leaves its record to the per-record path."""
    picked, comps = [], [np.empty((6, 0))]
    for key, other, n in (("T", "F", 6), ("F", "T", 9)):
        pos = [j for j, r in enumerate(recs) if type(r) is dict and key in r and other not in r]
        vals = [recs[j][key] for j in pos]
        # bool is a type of its own, so a bool fails the type check.
        if not (set(map(type, vals)) <= {list} and set(map(len, vals)) <= {n}
                and set(map(type, chain.from_iterable(vals))) <= _FLOAT_INT):
            good = [type(v) is list and len(v) == n and set(map(type, v)) <= _FLOAT_INT
                    for v in vals]
            pos, vals = list(compress(pos, good)), list(compress(vals, good))
        if not pos:
            continue
        try:
            x = np.fromiter(chain.from_iterable(vals), float, len(vals) * n)
        except OverflowError:
            x = np.array([_float_or_inf(v) for v in chain.from_iterable(vals)])
        x = x.reshape(-1, n).T
        ok = np.isfinite(x).all(0)
        if key == "F":
            det, b = _cauchy_green_terms(x.reshape(3, 3, -1))
            x, ok = np.array(b), ok & (det > 0.0)
        picked += compress(pos, ok.tolist())
        comps.append(x[:, ok])
    return picked, np.hstack(comps)


# bytes.translate table: a digit becomes "0", "." stays and every other byte
# becomes a space.  In a chunk's text so translated, a run of 19 or more
# digits that does not follow a "." shows as _LONG_INT: an int that may lie
# outside the range orjson reads as an int (18 digits lie inside), or a long
# exponent.
_DIGITS = bytes(ord("0") if ord("0") <= c <= ord("9") else c if c == ord(".") else ord(" ")
                for c in range(256))
_LONG_INT = b" " + b"0" * 19
# orjson nests past json's recursion limit (and crashes at a depth of
# 10**6); a line of at most this many characters nests at most 500 deep.
_LONG_LINE = 1000


def _parse(lines: list[str]) -> list:
    """For each line, what json.loads returns for it or the exception it
    raises.  orjson reads a chunk's lines in one pass, a few times faster,
    and gives the same values, but for three things: it reads an int outside
    [-2**63, 2**64) as a float, it nests past json's recursion limit, and
    it refuses what json accepts (NaN, Infinity, 1e400, lone surrogates),
    with errors of its own wording.  So a chunk with a run of 19 digits
    outside a fraction or a line of over _LONG_LINE characters is read by
    json, and a line that orjson refuses is read again by json."""
    text = (" " + "\n".join(lines)).encode(errors="surrogatepass").translate(_DIGITS)
    exact = _LONG_INT in text or max(map(len, lines), default=0) > _LONG_LINE
    loads = json.loads if exact else orjson.loads
    try:
        return list(map(loads, lines))
    except Exception:
        return [_value_or_error(loads, line) for line in lines]


def _value_or_error(loads, line: str):
    """loads(line), else json.loads(line), else the exception that raises."""
    try:
        return loads(line)
    except Exception:
        try:
            return json.loads(line)
        except Exception as exc:
            return exc


def _run_chunk(cmd: str, rm, first: int, lines: list[str]) -> Iterator[tuple[bool, str]]:
    """For each block of _BLOCK lines of one chunk of input lines, the first
    of which has number first, (whether every record of cmd in the block
    succeeded, output text of the block), with, for stress, the return map
    rm.  The records of the chunk are checked and evaluated as columns
    together; each block's rows are written as a table of text (_cells)
    and joined with the block's other lines between them (_joined).  A
    record that fails a check or a guard of the arrays goes through
    _dispatch, so that its output and errors are the scalar path's."""
    # Every line but the blank ones, with its record or the parse error; the
    # lines of the rows are dropped below, leaving those written between them.
    others = {k: rec for k, (line, rec) in enumerate(zip(lines, _parse(lines)))
              if not isinstance(rec, Exception) or line.strip()}
    places = [k for k, rec in others.items() if not isinstance(rec, Exception)]
    recs = list(map(others.__getitem__, places))
    at = np.empty(0, dtype=np.intp)
    with np.errstate(all="ignore"):
        picked, comps = _columns(recs)
        if picked:
            ok, vals, kind, extras = _dispatch_rows(cmd, SymTensor2(*comps), rm)
            at = np.take(places, picked)
            ids = np.array(_id_texts(list(map(recs.__getitem__, picked)), (at + first).tolist()),
                           dtype=object)
            rows = np.flatnonzero(ok & np.isfinite(vals).all(1) & np.not_equal(ids, None))
            # picked lists the T records before the F records.
            rows = rows[np.argsort(at[rows])]
            at, ids, kind, vals = at[rows], ids[rows], kind[rows], vals[rows]
    for k in at.tolist():
        del others[k]
    for start in range(0, len(lines), _BLOCK):
        all_ok, texts = True, {}
        for k in filter(others.__contains__, range(start, start + _BLOCK)):
            rec, line_id = others[k], f"line {first + k}"
            ok_k, texts[k] = ((False, _error_line(line_id, rec)) if isinstance(rec, Exception)
                              else _scalar_line(cmd, rec, line_id, rm))
            all_ok &= ok_k
        lo, hi = np.searchsorted(at, (start, start + _BLOCK)).tolist()
        # No name holds the table while the block is written, so that only
        # one block's number texts are alive at a time.
        yield all_ok, _joined(at[lo:hi], _cells(cmd, extras, kind[lo:hi], ids[lo:hi], vals[lo:hi])
                              if hi > lo else np.empty((0, 1), dtype=object), texts)


def _joined(at, cells: np.ndarray, others: dict[int, str]) -> str:
    """The text of the lines of a block: row j of the table cells is line
    at[j], at ascending, and others maps the other lines to their text.
    One join, with the other lines between the runs of rows."""
    flat = cells.ravel()
    if others:
        keys = sorted(others)
        flat = np.insert(flat, np.searchsorted(at, keys) * cells.shape[1],
                         [others[k] for k in keys])
    return "".join(flat.tolist())


def _input(path):
    """The input file at path, or stdin, opened for reading in universal
    newline mode: only LF, CR and CRLF end a line.  JSON allows the other
    line breaks of str.splitlines, such as U+2028, raw inside a string.
    Both are UTF-8 (RFC 8259), whatever the locale; a byte that does not
    decode is kept as a lone surrogate, so that it fails or passes with its
    own line only."""
    # On POSIX, sys.stdin itself translates no line ends.
    return open(sys.stdin.fileno() if path is None else path, "r", encoding="utf-8",
                errors="surrogateescape", closefd=path is not None)


def _writes_over(fh, path) -> bool:
    """Whether the output, the file at path or else stdout, is the regular
    file that fh reads: writing it would empty the input before it is read,
    or feed the output back in."""
    src = os.fstat(fh.fileno())
    try:
        dst = os.stat(path) if path is not None else os.fstat(sys.stdout.fileno())
    except OSError:  # no such output file yet, or no stdout
        return False
    return stat.S_ISREG(src.st_mode) and os.path.samestat(src, dst)


def _output(path):
    """stdout, or the file at path opened for writing."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


def _run_records(cmd: str, rm, fh, path) -> int:
    """Answer the records of the open input fh into the file at path, or
    stdout, a chunk of _CHUNK lines at a time: each chunk is written out,
    a block of _BLOCK lines at a time, and flushed before the next is read,
    also from a pipe that stays open."""
    all_ok, first = True, 1
    with _output(path) as out:
        # Line by line: fh.read(n) would wait on a pipe for n characters.
        while text := "".join(islice(fh, _CHUNK)):
            lines = text.split("\n")
            if not lines[-1]:
                lines.pop()
            for ok, block in _run_chunk(cmd, rm, first, lines):
                out.write(block)
                all_ok &= ok
            out.flush()
            first += len(lines)
    return 0 if all_ok else 2


def _draw_separated(rng) -> tuple:
    """(t, its oracle eigenpairs), t random with eigenvalue gaps over 1e-4 of the spread."""
    from . import oracle

    while True:
        t = SymTensor2(*(float(v) for v in rng.standard_normal(6)))
        pairs = oracle.jacobi_eigen(t)
        lam = [p.value for p in pairs]
        spread = lam[0] - lam[2]
        if spread > 0.0 and min(lam[0] - lam[1], lam[1] - lam[2]) >= 1e-4 * spread:
            return t, pairs


def _run_verify(args) -> int:
    # The test oracle stays off the evaluation path: only verify loads it.
    from . import oracle
    from .isofunc import isotropic_function, square_map

    rng = np.random.default_rng(args.seed)
    f = square_map()
    lines = []
    max_basis = 0.0
    max_tan = 0.0
    for k in range(args.count):
        t, pairs = _draw_separated(rng)
        sp = spectrum(t)
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
        rm = None
        if args.command == "stress":
            from .plasticity import vonmises_demo_map
            try:
                rm = vonmises_demo_map(args.bulk, args.shear, args.yield_stress)
            except ContractError as exc:
                parser.error(f"{args.command}: {exc}")
    try:
        if args.command == "verify":
            return _run_verify(args)
        with _input(args.input) as fh:
            if _writes_over(fh, args.output):
                parser.error(f"{args.command}: the output file is the input file; "
                             "write the output to another file")
            return _run_records(args.command, rm, fh, args.output)
    except OSError as exc:
        print(f"spectens: {exc}", file=sys.stderr)
        return 1
