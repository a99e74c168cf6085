"""End-to-end command-line checks through subprocess, one JSON record per line."""

import argparse
import importlib
import json
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from spectens import (
    ContractError,
    MultTag,
    SymTensor2,
    consistent_tangent,
    norm,
    reconstruct_stress,
    spectrum,
    vonmises_demo_map,
)
from spectens import cli
from spectens.plasticity import _map_at
from spectens.spectral import _decompose
from spectens.tensor_core import TAU_GAP

from util import BAND_TENSOR, cli_record, quat_rotation, spin_den


def run_cli(args, stdin_text=""):
    return subprocess.run(
        [sys.executable, "-m", "spectens", *args],
        input=stdin_text, capture_output=True, text=True, timeout=120)


def lines_of(proc):
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_invariants_spherical_and_diagonal():
    text = ('{"id": "a", "T": [1, 1, 1, 0, 0, 0]}\n'
            '{"id": "b", "T": [5, 2, -1, 0, 0, 0]}\n')
    proc = run_cli(["invariants"], text)
    assert proc.returncode == 0, proc.stderr
    recs = lines_of(proc)
    assert recs[0]["id"] == "a"
    assert recs[0]["I1"] == pytest.approx(3.0)
    assert recs[0]["J2"] == pytest.approx(0.0, abs=1e-300)
    assert recs[0]["theta"] == 0.0
    assert recs[0]["theta_defined"] is False
    assert recs[1]["I1"] == pytest.approx(6.0)
    assert recs[1]["J2"] == pytest.approx(9.0)
    assert recs[1]["J3"] == pytest.approx(0.0, abs=1e-13)
    assert recs[1]["theta"] == pytest.approx(0.0, abs=1e-14)
    assert recs[1]["theta_defined"] is True


def test_bad_records_keep_good_ones_flowing():
    text = ('{"id": 1, "T": [5, 2, -1, 0, 0, 0]}\n'
            'this is not json\n'
            '{"id": 3}\n'
            '\n'
            '{"id": 5, "T": [1, 2, 3, 0.1, 0.2, 0.3]}\n')
    proc = run_cli(["invariants"], text)
    assert proc.returncode == 2
    recs = lines_of(proc)
    assert len(recs) == 4
    assert "I1" in recs[0]
    assert recs[1]["id"] == "line 2" and "error" in recs[1]
    assert recs[2]["id"] == 3 and "exactly one of 'T' or 'F'" in recs[2]["error"]
    assert recs[3]["id"] == 5 and "I1" in recs[3]


def test_eigen_triple_classification():
    proc = run_cli(["eigen"], '{"id": 1, "T": [2, 2, 2, 0, 0, 0]}\n')
    assert proc.returncode == 0
    rec = lines_of(proc)[0]
    assert rec["multiplicity"] == "triple"
    assert rec["unique_index"] is None
    assert rec["lambda"] == pytest.approx([2.0, 2.0, 2.0])


def test_spin_refuses_repeated_spectrum():
    proc = run_cli(["spin"], '{"id": 9, "T": [4, 1, 1, 0, 0, 0]}\n')
    assert proc.returncode == 2
    rec = lines_of(proc)[0]
    assert "distinct" in rec["error"]
    assert "double_high_unique" in rec["error"]


def test_logstrain_accepts_deformation_gradient():
    proc = run_cli(["logstrain"],
                   '{"id": "x", "F": [2, 0, 0, 0, 0.5, 0, 0, 0, 1]}\n')
    assert proc.returncode == 0
    rec = lines_of(proc)[0]
    assert rec["branch"] == "distinct"
    want = [math.log(2.0), -math.log(2.0), 0.0, 0.0, 0.0, 0.0]
    assert rec["eps"] == pytest.approx(want, abs=1e-12)


def test_record_with_both_t_and_f_rejected():
    proc = run_cli(["eigen"],
                   '{"id": 0, "T": [1,2,3,0,0,0], "F": [1,0,0,0,1,0,0,0,1]}\n')
    assert proc.returncode == 2
    assert "exactly one of 'T' or 'F'" in lines_of(proc)[0]["error"]


def test_stress_matches_library_call():
    comps = [0.02, -0.005, -0.012, 0.003, 0.001, -0.002]
    proc = run_cli(["stress", "--bulk", "2", "--shear", "1",
                    "--yield-stress", "0.03"],
                   json.dumps({"id": 0, "T": comps}) + "\n")
    assert proc.returncode == 0, proc.stderr
    rec = lines_of(proc)[0]
    rm = vonmises_demo_map(2.0, 1.0, 0.03)
    eps = SymTensor2(*comps)
    want_sig = reconstruct_stress(eps, rm)
    want_tan = consistent_tangent(eps, rm)
    assert rec["sigma"] == pytest.approx(list(want_sig.as_tuple()), rel=1e-12)
    assert rec["tangent"] == pytest.approx(want_tan.as_list(), rel=1e-12)


def test_verify_is_deterministic_and_passes():
    a = run_cli(["verify", "--seed", "42", "--count", "50"])
    b = run_cli(["verify", "--seed", "42", "--count", "50"])
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
    summary = lines_of(a)[-1]
    assert summary["id"] == "summary"
    assert summary["pass"] is True
    assert summary["max_basis_dev"] < 1e-8
    assert summary["max_tangent_dev"] < 1e-4


RECORD_COMMANDS = ("invariants", "eigen", "basis", "spin", "logstrain", "stress")
_STRESS_FLAGS = ("--bulk", "2", "--shear", "1", "--yield-stress", "0.5")
_MALFORMED = ('this is not json', '[1, 2, 3]', '{"id": "no tensor"}',
              '{"id": "short", "T": [1, 2]}', '{"id": "text", "T": [1, 2, 3, 0, 0, "x"]}',
              '{"id": "flat", "F": [1, 0, 0, 0, 1, 0, 0, 0, 0]}',
              '{"id": "bool", "T": [1, 2, 3, 0, 0, true]}',
              '{"id": "nested", "T": [1, 2, 3, 0, [0], 0]}', '{"id": "string", "T": "123456"}',
              '{"id": "both", "T": [1, 2, 3, 0, 0, 0], "F": [1, 0, 0, 0, 1, 0, 0, 0, 1]}',
              '7.5', '"T"', '{"id": "mirror", "F": [-1, 0, 0, 0, 1, 0, 0, 0, 1]}',
              '{"id": "nan", "T": [1, 2, NaN, 0, 0, 0]}')


def _argv(cmd):
    return [cmd, *(_STRESS_FLAGS if cmd == "stress" else ())]


def _tensor_line(rec_id, eigs, r):
    comps = SymTensor2.from_matrix(r @ np.diag(eigs) @ r.T).as_tuple()
    return json.dumps({"id": rec_id, "T": list(comps)})


def _gradient_line(rec_id, stretches, r1, r2):
    f = r1 @ np.diag(stretches) @ r2
    return json.dumps({"id": rec_id, "F": [float(x) for x in f.ravel()]})


def _mixed_lines(rng, n):
    """n input lines: distinct, double (both tags) and triple spectra in
    random orientations, spectra within tau_gap of a branch switch, norms
    1e100..1e120, deformation gradients with distinct, two equal and three
    equal stretches, malformed records and blank lines."""
    lines = []
    for k in range(n):
        kind = k % 20
        q = rng.standard_normal(4)
        r = quat_rotation(q / np.linalg.norm(q))
        a, b, c = np.sort(rng.uniform(0.2, 2.0, 3))[::-1]
        if kind == 0:
            lines.append("" if k % 40 else "   ")
        elif kind == 1:
            lines.append(_MALFORMED[(k // 20) % len(_MALFORMED)])
        elif kind in (2, 10, 11):
            q2 = rng.standard_normal(4)
            stretches = {2: [a, b, c], 10: [a, c, c] if k % 40 < 20 else [a, a, c], 11: [b] * 3}
            lines.append(_gradient_line(k, stretches[kind], r,
                                        quat_rotation(q2 / np.linalg.norm(q2))))
        elif kind == 3:
            lines.append(_tensor_line(k, [a, b, b], r))
        elif kind == 4:
            lines.append(_tensor_line(k, [a, a, c], r))
        elif kind == 5:
            lines.append(_tensor_line(k, [a, a, a], r))
        elif kind in (6, 7):
            # A low gap within a factor 2 of tau_gap times the spread.
            gap = TAU_GAP * (a - c) * rng.uniform(0.5, 2.0)
            lines.append(_tensor_line(k, [a, c + gap, c], r))
        elif kind == 8:
            lines.append(_tensor_line(k, np.array([a, -b, c]) * 10.0 ** rng.uniform(100, 120), r))
        elif kind == 9:
            # Indefinite, or SPD with a stretch ratio below SPD_RATIO_FLOOR.
            lines.append(_tensor_line(k, [a, -b, c] if k % 40 == 9 else [a, b, 1e-16 * c], r))
        else:
            lines.append(_tensor_line(k, np.array([a, b, c]) * 10.0 ** rng.uniform(-3, 3), r))
    return lines


def _scalar_output(cmd, lines):
    """(exit status, output lines) of cmd from per-record scalar _dispatch."""
    rm = _return_map(cmd)
    out, status = [], 0
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        rec_id = f"line {lineno}"
        try:
            rec = json.loads(line)
            if not isinstance(rec, dict):
                raise ContractError("record must be a JSON object")
            rec_id = cli._checked_id(rec.get("id", rec_id))
            row, kind, extras = cli._dispatch(cmd, cli._record_tensor(rec), rm)
            res = cli_record(cmd, rec_id, cli._checked_finite(cmd, row), kind, extras)
        except Exception as exc:
            res = {"id": rec_id, "error": str(exc) or type(exc).__name__}
            status = 2
        out.append(json.dumps(res))
    return status, out


def _return_map(cmd):
    """The return map that cli.main builds from _argv(cmd)."""
    return vonmises_demo_map(2.0, 1.0, 0.5) if cmd == "stress" else None


def _chunk(cmd, lines):
    """(whether every record succeeded, output text) of _run_chunk of cmd on
    lines, the first of which is line 1, with the options of _argv(cmd):
    its blocks' texts joined."""
    blocks = list(cli._run_chunk(cmd, _return_map(cmd), 1, lines))
    return all(ok for ok, _ in blocks), "".join(text for _, text in blocks)


def _spin_sum_tol(t, sp, c, d=(0.0, 0.0, 0.0), extra=0.0):
    """The entrywise bound of test_spin_matches_dyad_reference_across_scales
    for sum_i c[i] spin_i + sum_i d[i] N_i x N_i, plus 8 eps extra for a
    tail of size extra."""
    eps = float(np.finfo(float).eps)
    tol = 8.0 * eps * (sum(abs(x) for x in d) + extra)
    for i in range(3):
        if c[i]:
            tol += abs(c[i]) * 128.0 * eps * norm(t) / abs(spin_den(sp, i))
    return tol


def _assert_same_records(cmd, lines, got, want):
    """Records of cmd byte-identical, but for tangents and spins, which agree
    within _spin_sum_tol."""
    assert len(got) == len(want)
    tensors = {}
    for line in lines:
        try:
            rec = json.loads(line)
            tensors[rec["id"]] = cli._record_tensor(rec)
        except Exception:
            continue
    for g, w in zip(got, want):
        if g == w:
            continue
        assert cmd in ("spin", "logstrain", "stress"), (g, w)
        rg, rw = json.loads(g), json.loads(w)
        field = {"spin": "spins", "logstrain": "deps_dB", "stress": "tangent"}[cmd]
        assert {k: v for k, v in rg.items() if k != field} == \
            {k: v for k, v in rw.items() if k != field}
        t = tensors[rw["id"]]
        sp = spectrum(t)
        assert sp.mult.tag is MultTag.DISTINCT
        if cmd == "spin":
            for i in range(3):
                c = [float(k == i) for k in range(3)]
                assert np.max(np.abs(np.subtract(rg[field][i], rw[field][i]))) \
                    <= _spin_sum_tol(t, sp, c)
            continue
        if cmd == "logstrain":
            e = [0.5 * math.log(x) for x in sp.lam]
            tol = _spin_sum_tol(t, sp, (e[0] - e[1], 0.0, e[2] - e[1]),
                                [0.5 / x for x in sp.lam])
        else:
            sig = _map_at(_decompose(t), vonmises_demo_map(2.0, 1.0, 0.5))[5]
            tol = _spin_sum_tol(t, sp, (sig[0] - sig[1], 0.0, sig[2] - sig[1]),
                                extra=max(abs(x) for x in rw[field]))
        assert np.max(np.abs(np.subtract(rg[field], rw[field]))) <= tol


@pytest.mark.parametrize("cmd", RECORD_COMMANDS)
def test_chunked_output_equals_scalar_dispatch(cmd, tmp_path):
    lines = _mixed_lines(np.random.default_rng(17), 2 * cli._CHUNK + 300)
    src, dst = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    src.write_text("".join(line + "\n" for line in lines))
    status = cli.main([*_argv(cmd), "--input", str(src), "--output", str(dst)])
    want_status, want = _scalar_output(cmd, lines)
    assert status == want_status == 2
    _assert_same_records(cmd, lines, dst.read_text().splitlines(), want)


_scalar_line = cli._scalar_line


def _branch_lines(rng, n, cmd):
    """n T records with distinct, two equal and three equal eigenvalues at
    norms 1e-3..1e3 (SPD ones for logstrain, half of whose records are F
    with distinct, two equal and three equal stretches)."""
    lines = []
    for k in range(n):
        r = _unit(rng.standard_normal(4))
        e = rng.uniform(0.1, 2.0, 3) if cmd == "logstrain" else rng.uniform(-1.0, 1.0, 3)
        e = e[[[0, 1, 2], [0, 1, 1], [0, 0, 2], [0, 0, 0]][k % 4]]
        if cmd == "logstrain" and k % 2:
            lines.append(_gradient_line(k, e, r, _unit(rng.standard_normal(4))))
        else:
            lines.append(_tensor_line(k, e * 10.0 ** rng.uniform(-3, 3) / np.linalg.norm(e), r))
    return lines


@pytest.mark.parametrize("cmd", ("stress", "logstrain", "spin"))
def test_row_path_lines_equal_scalar_lines_bit_for_bit(cmd, monkeypatch):
    """The row kernels multiply stacks with np.matmul and the scalar path
    multiplies single arrays with ndarray.dot, on the same formula bodies:
    every line of _run_chunk is byte-identical to the line _scalar_line
    writes for the same record, on every branch.  Only the records that
    fail (spin of a repeated eigenvalue) reach _scalar_line in _run_chunk."""
    lines = _branch_lines(np.random.default_rng(11), 800, cmd)
    scalar = []
    with monkeypatch.context() as m:
        m.setattr(cli, "_scalar_line", lambda *a: scalar.append(a) or _scalar_line(*a))
        _, text = _chunk(cmd, lines)
    assert cmd == "spin" or not scalar
    rm = _return_map(cmd)
    want = [_scalar_line(cmd, json.loads(line), None, rm)[1] for line in lines]
    assert text.splitlines(keepends=True) == want
    assert sum('"error"' in line for line in want) == len(scalar)


_EIGS = hs.floats(-10.0, 10.0, allow_subnormal=False)
_REPEATS = hs.sampled_from(((0, 1, 2), (0, 0, 2), (0, 2, 2), (0, 0, 0)))
_QUAT = hs.tuples(*[hs.floats(-1.0, 1.0)] * 4).filter(lambda q: np.linalg.norm(q) > 0.1)
_LOG10_SCALE = hs.one_of(hs.floats(-3.0, 3.0), hs.floats(-120.0, 110.0))
_TENSOR = hs.tuples(hs.tuples(_EIGS, _EIGS, _EIGS), _REPEATS, _QUAT, _LOG10_SCALE)
_STRETCHES = hs.tuples(*[hs.floats(0.05, 20.0)] * 3)
_GRADIENT = hs.tuples(_STRETCHES, _REPEATS, _QUAT, _QUAT)


def _unit(quat):
    q = np.array(quat)
    return quat_rotation(q / np.linalg.norm(q))


def _scalar_text(cmd, lines):
    """(whether every record succeeded, output text) of _run_chunk of cmd on
    lines, the first of which is line 1, with each record written by
    _scalar_line."""
    rm = _return_map(cmd)
    all_ok, out = True, []
    for lineno, line in enumerate(lines, start=1):
        try:
            rec = json.loads(line)
        except ValueError as exc:
            ok = not line.strip()
            text = "" if ok else cli._error_line(f"line {lineno}", exc)
        else:
            ok, text = _scalar_line(cmd, rec, f"line {lineno}", rm)
        all_ok &= ok
        out.append(text)
    return all_ok, "".join(out)


# Lines that the row path does not write, or writes with the id of the
# line's number: blank, malformed, no id, an id refused as JSON.
_OTHER_LINES = ("", "   ", *_MALFORMED, '{"T": [3.0, 2.0, 1.0, 0.3, 0.2, 0.1]}',
                '{"F": [1.2, 0.1, 0, 0, 0.9, 0, 0, 0.2, 1.1]}',
                '{"id": NaN, "T": [3.0, 2.0, 1.0, 0.3, 0.2, 0.1]}')


@settings(max_examples=60)
@given(hs.lists(_TENSOR, min_size=1, max_size=8), hs.lists(_GRADIENT, max_size=4),
       hs.lists(hs.sampled_from(_OTHER_LINES), max_size=4), hs.data())
def test_chunked_output_equals_scalar_dispatch_property(draws, gradients, others, data):
    """T records and F records, each with distinct, two equal or three equal
    eigenvalues or stretches, shuffled with blank and malformed lines and
    records without an id: the chunk writes the bytes of the scalar path,
    line for line in input order."""
    lines = []
    for k, (e, rep, quat, log10_scale) in enumerate(draws):
        eigs = np.array([e[i] for i in rep]) * 10.0 ** log10_scale
        lines.append(_tensor_line(k, eigs, _unit(quat)))
    for k, (s, rep, q1, q2) in enumerate(gradients, start=len(lines)):
        lines.append(_gradient_line(k, [s[i] for i in rep], _unit(q1), _unit(q2)))
    lines = data.draw(hs.permutations(lines + others))
    for cmd in RECORD_COMMANDS:
        ok, text = _chunk(cmd, lines)
        want_status, want = _scalar_output(cmd, lines)
        assert (0 if ok else 2) == want_status
        _assert_same_records(cmd, lines, text.splitlines(), want)
        assert (ok, text) == _scalar_text(cmd, lines)


_IDS = (7, 2 ** 64 + 3, -12, 1.5, -0.0, 'say "hi" \\ gr\u00fc\u00dfe \u2211', "", True, False,
        None, [1, "a", [2.5]], {"k": [1.0, None], "\u00e9": {}})
_EXTRAS = {"invariants": (True, False), "stress": (None,),
           **{cmd: cli._MULTS for cmd in ("eigen", "basis", "spin", "logstrain")}}
_WORDS = ("theta_defined", "multiplicity", "unique_index", "branch")
_WIDTH = {"invariants": 6, "eigen": 3, "basis": 21, "spin": 108, "logstrain": 42, "stress": 42}


@pytest.mark.parametrize("cmd", RECORD_COMMANDS)
def test_serializer_matches_json_reference(cmd):
    """Every line of cmd, written with the JSON text of every kind of id
    and with numbers across the float range, is json.dumps of the dict."""
    rng = np.random.default_rng(3)
    special = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
               1.0, 0.1, -1e16, 1e-7, 123456789012345678.0, 1 / 3]
    for e in range(len(_EXTRAS[cmd])):
        for rec_id in _IDS:
            row = [float(x) for x in rng.standard_normal(_WIDTH[cmd])
                   * 10.0 ** rng.integers(-300, 300, _WIDTH[cmd])]
            row[:len(special)] = special[:len(row)]
            rng.shuffle(row)
            want = json.dumps(cli_record(cmd, rec_id, row, e, _EXTRAS[cmd])) + "\n"
            cells = cli._cells(cmd, _EXTRAS[cmd], np.array([e]), [cli._id_text(rec_id)],
                               np.array([row]))
            assert "".join(cells.ravel()) == want


_TABLE_SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                  1e16, 1e-7, -1e16, -1e-7)


@settings(max_examples=40)
@given(hs.lists(hs.one_of(hs.sampled_from(_TABLE_SPECIAL),
                          hs.floats(allow_nan=False, allow_infinity=False)), min_size=1),
       hs.integers(1, 4), hs.integers(0, 2 ** 32 - 1))
def test_number_table_writes_what_json_writes(pool, m, seed):
    """m rows drawn from a small pool of numbers, so that they repeat within
    and across rows, are written as json.dumps of the record."""
    rng = np.random.default_rng(seed)
    for cmd in RECORD_COMMANDS:
        vals = np.array(pool)[rng.integers(0, len(pool), (m, _WIDTH[cmd]))]
        for e in range(len(_EXTRAS[cmd])):
            # The kind of invariants is a bool, theta_defined.
            kind = np.full(m, e, dtype=bool if cmd == "invariants" else np.intp)
            cells = cli._cells(cmd, _EXTRAS[cmd], kind, [cli._id_text(7)] * m, vals)
            for row, want in zip(cells.tolist(), vals.tolist()):
                record = cli_record(cmd, 7, want, e, _EXTRAS[cmd])
                assert "".join(row) == json.dumps(record) + "\n"


def _reprs(vals):
    return [[repr(x) for x in row] for row in vals.tolist()]


def test_equal_tangent_numbers_of_a_chunk_share_one_str():
    """Every entry, the stress included, is written as repr of its float.
    Each bit pattern among the tangent entries of a chunk is converted to
    text once: equal patterns share one str, 0.0 and -0.0 do not."""
    tangents = np.array([[0.1, -0.0, 0.0, 0.1, 1e16, 0.1] * 6, [0.1] * 36])
    vals = np.hstack((np.array([[0.1, 1e-5, -2.5, 1e300, 0.0, 7.0]] * 2), tangents))
    rows = cli._numbers("stress", vals).tolist()
    assert rows == _reprs(vals)
    texts = [x for row in rows for x in row[6:]]
    first = {}
    for x in texts:
        assert first.setdefault(x, x) is x
    assert len(first) == 4


# Numbers at the edges of the float range and of the exponent styles: repr
# writes 1e-05, 1e-09 and 1e+16 where orjson writes 0.00001, 1e-9 and 1e16,
# and both write 1e-10.
_EDGE_NUMBERS = (0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, -sys.float_info.min,
                 sys.float_info.max, -sys.float_info.max,
                 *(s * y for x in (1e-9, 1e-4, 1e16) for s in (1.0, -1.0)
                   for y in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))))


@settings(max_examples=25)
@given(hs.lists(hs.floats(allow_nan=False, allow_infinity=False)), hs.integers(0, 2 ** 32 - 1))
def test_number_texts_are_repr_entry_for_entry(pool, seed):
    """cli._texts writes repr of every entry of arrays of numbers from the
    whole float64 range, the edge values and random bit patterns, in every
    shape the rows can take and in a non-contiguous slice."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(-2 ** 63, 2 ** 63 - 1, 64, dtype=np.int64, endpoint=True).view(float)
    pool = np.array([*pool, *_EDGE_NUMBERS, *bits[np.isfinite(bits)]])
    for shape in ((0, 6), (5, 0), (1, 21), (512, 42)):
        vals = pool[rng.integers(0, len(pool), shape)]
        texts = cli._texts(vals)
        assert texts.shape == shape
        assert texts.tolist() == _reprs(vals)
    assert cli._texts(vals[::3, 5:-6]).tolist() == _reprs(vals[::3, 5:-6])
    assert cli._texts(np.array(_EDGE_NUMBERS)).tolist() == [repr(x) for x in _EDGE_NUMBERS]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_number_texts_refuse_a_number_that_is_not_finite(bad):
    """orjson writes NaN and Infinity as null, which is no number."""
    vals = np.full((2, 42), 0.5)
    vals[1, 3] = bad
    with pytest.raises(ValueError, match="not finite"):
        cli._texts(vals)
    with pytest.raises(ValueError, match="not finite"):
        cli._numbers("stress", vals)
    vals[1, 3], vals[0, 40] = 0.5, bad
    with pytest.raises(ValueError, match="not finite"):
        cli._numbers("stress", vals)


@pytest.mark.parametrize("cmd", RECORD_COMMANDS)
def test_chunk_size_does_not_change_the_output(cmd, monkeypatch, tmp_path):
    """Chunks of 1, 7 and 512 lines, with a number table each, give the same
    bytes and exit status."""
    src = tmp_path / "in.jsonl"
    src.write_text("".join(line + "\n" for line in _mixed_lines(np.random.default_rng(31), 530)))
    outputs = set()
    for size in (1, 7, 512):
        monkeypatch.setattr(cli, "_CHUNK", size)
        out = tmp_path / f"out-{size}.jsonl"
        status = cli.main([*_argv(cmd), "--input", str(src), "--output", str(out)])
        outputs.add((status, out.read_bytes()))
    assert len(outputs) == 1


@pytest.mark.parametrize("cmd", RECORD_COMMANDS)
def test_every_id_type_is_written_as_json_writes_it(cmd):
    """Every kind of id among others, and a chunk of only ints and bools
    (bool is not int to the chunk's check that all ids are ints)."""
    lines = [json.dumps({"id": rec_id, "T": [3.0, 2.0, 1.0, 0.3, 0.2, 0.1]}) for rec_id in _IDS]
    lines.append('{"T": [3.0, 2.0, 1.0, 0.3, 0.2, 0.1]}')
    _, text = _chunk(cmd, lines)
    for rec_id, line in zip([*_IDS, f"line {len(lines)}"], text.splitlines()):
        assert line.startswith('{"id": ' + json.dumps(rec_id) + ", ")
        assert "error" not in json.loads(line)
    ids = [7, True, -12, False, 2 ** 64 + 3]
    _, text = _chunk(cmd, [json.dumps({"id": rec_id, "T": [3.0, 2.0, 1.0, 0.3, 0.2, 0.1]})
                           for rec_id in ids])
    assert [line[:line.index(",")] for line in text.splitlines()] == [
        '{"id": ' + json.dumps(rec_id) for rec_id in ids]


def _good_lines(rng, n):
    r = quat_rotation(rng.standard_normal(4) / 2.0)
    return [_tensor_line(f"good {k}", rng.uniform(0.5, 2.0, 3), r) for k in range(n)]


# Lines that the rows of a block do not write: unparsable, blank, spin of a
# double (a row of every other command) and an int past the float range.
_UNPARSABLE, _BLANK = "this is not json", "  "
_DOUBLE = '{"id": "double", "T": [3.0, 1.0, 1.0, 0.0, 0.0, 0.0]}'
_HUGE = '{"id": "huge", "T": [1, 2, 3, 0, 0, 1' + "0" * 400 + "]}"


@pytest.mark.parametrize("cmd", RECORD_COMMANDS)
def test_malformed_records_match_the_scalar_path(cmd):
    """Each bad record among good ones, a component of 10**400 (an int past
    the float range, which the column checks read as inf), a chunk of only
    bad records, and good records with leading whitespace each give the
    per-record path's output."""
    rng = np.random.default_rng(11)
    chunks = [[*_good_lines(rng, 3), bad, *_good_lines(rng, 2)]
              for bad in (*_MALFORMED, _HUGE)]
    chunks.append([*_MALFORMED, _HUGE])
    chunks.append(["  \t" + line for line in _good_lines(rng, 4)])
    for lines in chunks:
        ok, text = _chunk(cmd, lines)
        want_status, want = _scalar_output(cmd, lines)
        assert (0 if ok else 2) == want_status
        _assert_same_records(cmd, lines, text.splitlines(), want)


@pytest.mark.parametrize("cmd", RECORD_COMMANDS)
def test_block_edges_match_the_scalar_path(cmd):
    """A chunk of _CHUNK good lines, so with rows at every block edge; the
    same chunk with each line above at the first line of a block and at the
    last, and a block of such lines only, without the double, so with no
    rows; a chunk shorter than a block, with or without a record that
    fails.  Each gives the bytes and the flag of the scalar path
    (_scalar_line)."""
    rng = np.random.default_rng(29)
    n, b = cli._CHUNK, cli._BLOCK
    assert n >= 4 * b
    good = _good_lines(rng, n)
    lines = good.copy()
    lines[3 * b:4 * b] = rng.choice([_UNPARSABLE, _BLANK, _HUGE, ""], b).tolist()
    for k, (first, last) in enumerate(((_UNPARSABLE, _DOUBLE), (_BLANK, _HUGE),
                                       (_DOUBLE, _UNPARSABLE), (_HUGE, _BLANK))):
        lines[k * b], lines[k * b + b - 1] = first, last
    short = _good_lines(rng, b // 2)
    for chunk in (good, lines, [_DOUBLE, *short, _UNPARSABLE], [*short, _DOUBLE], short):
        assert _chunk(cmd, chunk) == _scalar_text(cmd, chunk)
    assert _chunk(cmd, [*short, _DOUBLE])[0] is (cmd != "spin")
    assert _chunk(cmd, short)[0] is True


@pytest.mark.parametrize("cmd", RECORD_COMMANDS)
def test_an_int_past_the_float_range_sends_only_its_record_to_the_scalar_path(cmd, monkeypatch):
    """Ten good records and one with a component of 10**400: only that one
    reaches _scalar_line, which words its error, and the chunk gives the
    per-record path's output."""
    rng = np.random.default_rng(13)
    huge = '{"id": "huge", "T": [1' + "0" * 400 + ', 2, 3, 0, 0, 0]}'
    lines = [*_good_lines(rng, 5), huge, *_good_lines(rng, 5)]
    seen = []
    monkeypatch.setattr(cli, "_scalar_line", lambda *args: seen.append(args) or _scalar_line(*args))
    ok, text = _chunk(cmd, lines)
    assert [args[2] for args in seen] == ["line 6"]
    want_status, want = _scalar_output(cmd, lines)
    assert (0 if ok else 2) == want_status == 2
    assert "int too large to convert to float" in want[5]
    _assert_same_records(cmd, lines, text.splitlines(), want)


_JSON_VALUES = hs.recursive(
    hs.none() | hs.booleans() | hs.integers() | hs.floats() | hs.text(max_size=4),
    lambda inner: hs.lists(inner, max_size=3) | hs.dictionaries(hs.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=8)
_PARSE_CASES = ('', '   ', '{"id": 1, "id": 2, "T": [1, 2, 3, 0, 0, 0]}',
                '{"a": 1, "b": 2, "a": 3}', '{"T": [1, 2, 3, 0, 0, 0], "id": 1, "T": [4]}',
                '{"id": 1, "T": [1e400, NaN, -Infinity, 0, 0, -0.0]}', '1e400', '-1e400',
                'NaN', 'Infinity', '-Infinity', '-0', '\ufeff{"id": 1, "T": [1, 2, 3, 0, 0, 0]}',
                '{"x": 0}, {"b": [{}', '{}]}', '{"x": 0}, {"b": [{}{}]}', '{"a": 1} {"b": 2}',
                '{"a": 1}x', '[1, 2', '1,2', '[3', '4]', '"\\ud800"', '"\\udc80x"',
                '{"id": "\ud800", "T": [1, 2, 3, 0, 0, 0]}', '"\udc80"', '{"a": "\u2028"}',
                '[1.5, 18446744073709551616.5, 0.1234567890123456789012]')
_PADDING = hs.text(" \t\r\n\x0c\u00a0\u2028\ufeff", max_size=3)
_RECORD_IDS = (7, -0.0, "a", None, [1, {"b": 2}])
# Ints at both edges of [-2**63, 2**64), the range orjson 3.8 reads as
# ints, and of 19 to 31 digits, which it reads as floats if they lie outside.
_LONG_INTS = hs.one_of(
    hs.sampled_from((2 ** 63 - 1, 2 ** 63, 2 ** 63 + 1, -2 ** 63 - 1, -2 ** 63, -2 ** 63 + 1,
                     2 ** 64 - 1, 2 ** 64, 2 ** 64 + 1, -2 ** 64)),
    hs.integers(19, 31).flatmap(lambda n: hs.integers(10 ** (n - 1), 10 ** n - 1)
                                | hs.integers(1 - 10 ** n, -10 ** (n - 1))))
_GOOD_LINES = hs.one_of(
    hs.tuples(hs.sampled_from(_RECORD_IDS), hs.lists(hs.floats(), min_size=6, max_size=6))
    .map(lambda r: json.dumps({"id": r[0], "T": r[1]})),
    _LONG_INTS.map(lambda k: f'{{"id": {k}, "T": [1, 2, 3, 0, 0, 0]}}'),
    _LONG_INTS.map(lambda k: f'{{"id": 1, "T": [1, 2, {k}, 0, 0, 0]}}'))


def _piece(args):
    """A line of text, its head or its tail, with padding around it."""
    text, lead, trail, cut, part = args
    cut %= len(text) + 1
    return lead + {"whole": text, "head": text[:cut], "tail": text[cut:]}[part] + trail


_ANY_LINES = hs.tuples(hs.one_of(_JSON_VALUES.map(json.dumps), hs.sampled_from(_PARSE_CASES)),
                       _PADDING, _PADDING, hs.integers(0, 10 ** 6),
                       hs.sampled_from(("whole", "head", "tail"))).map(_piece)


def _assert_parse_is_json_loads(lines):
    got = cli._parse(lines)
    assert len(got) == len(lines)
    for line, value in zip(lines, got):
        try:
            want = json.loads(line)
        except Exception as exc:
            assert isinstance(value, Exception), line
            assert (type(value), str(value)) == (type(exc), str(exc)), line
        else:
            assert repr(value) == repr(want), line


@settings(max_examples=300)
@given(hs.tuples(hs.lists(_GOOD_LINES, max_size=6), hs.lists(_ANY_LINES, max_size=2))
       .map(lambda parts: parts[0] + parts[1]).flatmap(hs.permutations))
def test_parse_gives_the_record_or_error_of_json_loads(lines):
    """A chunk of records, with up to two other lines among them: valid JSON,
    fragments of it, whitespace, a BOM or other characters around them,
    long ints, constants, duplicate keys and lone surrogates.  Each line
    parses to json.loads's record, or to its exception with its message."""
    _assert_parse_is_json_loads(lines)


@pytest.mark.parametrize("depth", (10, 450, 600, 2000))
def test_parse_nests_as_deep_as_json_loads(depth):
    """orjson nests past json's recursion limit: a line nested 2,000 deep is
    json's RecursionError, and both sides of the line length that orjson
    may read parse as json does."""
    good = '{"id": 1, "T": [1, 2, 3, 0, 0, 0]}'
    _assert_parse_is_json_loads([good, "[" * depth + "]" * depth, good])


def test_a_line_nested_a_million_deep_is_an_error_record():
    """json.loads raises RecursionError on it; orjson 3.8 would crash."""
    text = '{"id": 1, "T": [5, 2, -1, 0, 0, 0]}\n' + "[" * 10 ** 6 + "]" * 10 ** 6 + "\n"
    proc = run_cli(["eigen"], text)
    assert proc.returncode == 2, proc.stderr
    recs = lines_of(proc)
    assert recs[0]["id"] == 1 and "lambda" in recs[0]
    assert recs[1] == {"id": "line 2", "error": "maximum recursion depth exceeded while "
                                                "decoding a JSON array from a unicode string"}


@pytest.mark.parametrize("rec_id", (2 ** 64, -2 ** 63 - 1, 10 ** 30))
def test_an_id_past_64_bits_stays_an_int(rec_id):
    lines = [json.dumps({"id": rec_id, "T": [5, 2, -1, 0, 0, 0]}),
             '{"id": 2, "T": [5, 2, -1, 0, 0, 0]}']
    proc = run_cli(["eigen"], "".join(line + "\n" for line in lines))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f'{{"id": {rec_id}, "lambda": [')
    assert [r["id"] for r in lines_of(proc)] == [rec_id, 2]


def test_valid_double_and_triple_rows_skip_the_scalar_path(monkeypatch):
    """Every valid record of logstrain and stress, T or F, of any spectrum
    class, is evaluated as a row: none reaches _scalar_line."""
    rng = np.random.default_rng(29)
    lines = []
    for k in range(60):
        r1, r2 = (quat_rotation(q / np.linalg.norm(q)) for q in rng.standard_normal((2, 4)))
        a, b, c = np.sort(rng.uniform(0.5, 2.0, 3))[::-1]
        eigs = ([a, b, c], [a, c, c], [a, a, c], [b, b, b])[k % 4]
        lines.append(_tensor_line(k, eigs, r1) if k % 8 < 4 else _gradient_line(k, eigs, r1, r2))
    seen = []
    scalar_line = cli._scalar_line
    monkeypatch.setattr(cli, "_scalar_line", lambda *args: seen.append(args) or scalar_line(*args))
    for cmd in ("logstrain", "stress"):
        ok, text = _chunk(cmd, lines)
        assert ok and not seen, cmd
        want_status, want = _scalar_output(cmd, lines)
        assert want_status == 0
        _assert_same_records(cmd, lines, text.splitlines(), want)
        branches = [spectrum(cli._record_tensor(json.loads(line))).mult.tag for line in lines]
        assert set(branches) == set(MultTag), cmd


def test_records_under_a_dominant_isotropic_part_stay_on_the_rows(monkeypatch):
    """a I plus a deviator of about 0.01, a up to 1e9, near-double or
    random, among records at unit scale: invariants, eigen and logstrain
    answer every one as a row, with the output of one scalar call per
    record, and write nothing to stderr when warnings are errors."""
    rng = np.random.default_rng(31)
    lines = []
    for k in range(200):
        r = _unit(rng.standard_normal(4))
        if k % 2:
            lines.append(_tensor_line(k, rng.uniform(0.5, 2.0, 3), r))
            continue
        gap = 10.0 ** rng.uniform(-4.0, -1.0)
        shape = [2.0, -1.0 + gap, -1.0 - gap] if k % 4 else rng.uniform(-1.0, 1.0, 3)
        lines.append(_tensor_line(k, 10.0 ** rng.uniform(5.0, 9.0) + 0.01 * np.array(shape), r))
    text_in = "".join(line + "\n" for line in lines)
    seen = []
    scalar_line = cli._scalar_line
    monkeypatch.setattr(cli, "_scalar_line", lambda *args: seen.append(args) or scalar_line(*args))
    for cmd in ("invariants", "eigen", "logstrain"):
        ok, text = _chunk(cmd, lines)
        assert ok and not seen, cmd
        want_status, want = _scalar_output(cmd, lines)
        assert want_status == 0
        _assert_same_records(cmd, lines, text.splitlines(), want)
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "spectens", cmd],
                              input=text_in, capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", text), cmd


def test_crlf_input_gives_the_output_of_lf_input(tmp_path):
    lines = _mixed_lines(np.random.default_rng(23), 200)
    for cmd in ("basis", "logstrain"):
        outs = []
        for newline in ("\n", "\r\n"):
            src, dst = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
            src.write_bytes("".join(line + newline for line in lines).encode())
            assert cli.main([*_argv(cmd), "--input", str(src), "--output", str(dst)]) == 2
            outs.append(dst.read_text())
        assert outs[0] == outs[1]
        assert len(outs[0].splitlines()) == len(lines) - 10


@pytest.mark.parametrize("parallel", ("1", "2"))
def test_unicode_line_breaks_in_a_string_do_not_split_a_record(parallel, tmp_path):
    """U+2028 and U+0085 are line breaks to str.splitlines, but JSON allows
    them raw in a string; only LF, CR and CRLF end a record."""
    ids = ["a\u2028b", "c\u0085d", "e\u2029f"]
    lines = [json.dumps({"id": rec_id, "T": [3, 2, 1, 0.3, 0.2, 0.1]}, ensure_ascii=False)
             for rec_id in ids]
    lines.append("not json")
    text = lines[0] + "\n" + lines[1] + "\r\n" + lines[2] + "\r" + lines[3] + "\n"
    src = tmp_path / "in.jsonl"
    src.write_bytes(text.encode())
    for args, stdin in ((["--input", str(src)], ""), ([], text)):
        proc = subprocess.run([sys.executable, "-m", "spectens", "eigen", "--parallel", parallel,
                               *args], input=stdin.encode(), capture_output=True, timeout=120)
        assert proc.returncode == 2, proc.stderr
        recs = [json.loads(line) for line in proc.stdout.decode().split("\n")[:-1]]
        assert [r["id"] for r in recs] == [*ids, "line 4"]
        assert all("lambda" in r for r in recs[:3])


@pytest.mark.parametrize("option, value", (("--yield-stress", "0"), ("--yield-stress", "nan"),
                                           ("--bulk", "inf"), ("--shear", "-1")))
def test_bad_stress_parameters_are_a_usage_error(option, value):
    record = '{"id": 1, "T": [1, 2, 3, 0, 0, 0]}\n'
    for parallel, stdin in (("1", record), ("2", record), ("1", "")):
        proc = run_cli(["stress", option, value, "--parallel", parallel], stdin)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "usage:" in proc.stderr and "finite and positive" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_classification_floors_are_not_options():
    """The coincidence floors are constants: a gap floor of 0.6 once called
    every tensor double, with bases that are not projectors."""
    proc = run_cli(["basis", "--tol-gap", "0.6"], '{"id": 1, "T": [3, 2, 1, 0, 0, 0]}\n')
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "usage:" in proc.stderr and "unrecognized arguments: --tol-gap" in proc.stderr
    assert "Traceback" not in proc.stderr


# The option strings of each subcommand but -h and --help: a new knob
# changes this list on purpose.
_RECORD_OPTIONS = ["--input", "--output", "--parallel"]
CLI_OPTIONS = {
    "invariants": _RECORD_OPTIONS,
    "eigen": _RECORD_OPTIONS,
    "basis": _RECORD_OPTIONS,
    "spin": _RECORD_OPTIONS,
    "logstrain": _RECORD_OPTIONS,
    "stress": [*_RECORD_OPTIONS, "--bulk", "--shear", "--yield-stress"],
    "verify": ["--seed", "--count", "--output"],
}


def test_cli_options_are_pinned():
    parser = cli._build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    got = {name: [s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")]
           for name, p in sub.choices.items()}
    assert got == CLI_OPTIONS


def test_record_with_undefined_theta_is_triple_in_every_command(tmp_path):
    """BAND_TENSOR, whose Lode angle is undefined, is triple on every
    command: spin refuses it, and stress is spherical."""
    src = tmp_path / "in.jsonl"
    src.write_text(json.dumps({"id": 1, "T": list(BAND_TENSOR.as_tuple())}) + "\n")
    for cmd in ("eigen", "basis", "spin", "logstrain", "stress"):
        dst = tmp_path / f"{cmd}.jsonl"
        status = cli.main([*_argv(cmd), "--input", str(src), "--output", str(dst)])
        rec = json.loads(dst.read_text())
        if cmd == "spin":
            assert status == 2
            assert rec["error"].endswith("input classified as triple")
        elif cmd == "stress":
            assert status == 0
            sigma = rec["sigma"]
            assert sigma[0] == sigma[1] == sigma[2] and sigma[3:] == [0.0, 0.0, 0.0]
        else:
            assert status == 0
            assert rec["multiplicity" if cmd != "logstrain" else "branch"] == "triple"
        if cmd == "basis":
            assert rec["bases"] == [[1.0 / 3.0] * 3 + [0.0] * 3] * 3


@pytest.mark.parametrize("args", (["eigen", "--parallel", "0"], ["spin", "--parallel", "-3"],
                                  ["verify", "--count", "0"], ["verify", "--count", "-5"]))
def test_counts_below_one_are_a_usage_error(args):
    proc = run_cli(args, '{"id": 1, "T": [5, 2, -1, 0, 0, 0]}\n')
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "usage:" in proc.stderr and "must be at least 1" in proc.stderr


def test_negative_seed_is_a_usage_error():
    proc = run_cli(["verify", "--seed", "-1", "--count", "1"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "usage:" in proc.stderr and "--seed must be at least 0" in proc.stderr
    assert "Traceback" not in proc.stderr


_NOT_UTF8 = ('{"id": "\u00e9", "T": [5, 2, -1, 0, 0, 0]}\n'.encode() + b"\xff\n"
             b'{"id": 3, "T": [5, 2, -1, 0, 0, 0]}\n')


@pytest.mark.parametrize(("source", "stdin_encoding"), (("file", None), ("stdin", None),
                                                        ("stdin", "utf-8:strict"),
                                                        ("stdin", "latin-1")))
def test_a_line_that_is_not_utf8_is_an_error_record(source, stdin_encoding, tmp_path):
    """Input is UTF-8 from a file as from stdin, whatever encoding and error
    handler the locale gives stdin, and a byte that does not decode fails
    its own line only."""
    src = tmp_path / "in.jsonl"
    src.write_bytes(_NOT_UTF8)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    if stdin_encoding:
        env["PYTHONIOENCODING"] = stdin_encoding
    args = ["--input", str(src)] if source == "file" else []
    proc = subprocess.run([sys.executable, "-m", "spectens", "eigen", *args], env=env,
                          input=b"" if args else _NOT_UTF8, capture_output=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    recs = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [r["id"] for r in recs] == ["\u00e9", "line 2", 3]
    assert "error" in recs[1] and "error" not in recs[0] and "error" not in recs[2]


def test_an_id_that_utf8_cannot_encode_is_an_error_record():
    """An id holding a lone surrogate, from a byte that is not UTF-8 or from
    a JSON escape, at any depth, fails its record as NaN does; a letter
    that is not ASCII and an escaped surrogate pair echo as before."""
    ids = (b'"a\xff"', b'"\\ud800"', b'["x\x80"]', b'{"k\\udfff": 1}',
           '"\u00e9"'.encode(), b'"\\ud83d\\ude00"')
    text = b"".join(b'{"id": %s, "T": [5, 2, -1, 0, 0, 0]}\n' % i for i in ids)
    proc = subprocess.run([sys.executable, "-m", "spectens", "eigen"], input=text,
                          capture_output=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    lines = proc.stdout.decode("ascii").splitlines()
    for k, line in enumerate(lines[:4], 1):
        assert json.loads(line) == {"id": f"line {k}", "error": "'id' holds a byte that is "
                                                                "not UTF-8 or a lone surrogate"}
    assert lines[4].startswith('{"id": "\\u00e9", "lambda": [5.0')
    assert lines[5].startswith('{"id": "\\ud83d\\ude00", "lambda": [5.0')


def test_error_message_is_never_empty(monkeypatch):
    class Bare(Exception):
        pass

    def bare(*args):
        raise Bare()
    monkeypatch.setattr(cli, "_dispatch", bare)
    ok, text = _chunk("spin", ['{"id": 9, "T": [4, 1, 1, 0, 0, 0]}'])
    assert not ok
    assert json.loads(text) == {"id": 9, "error": "Bare"}


@pytest.mark.parametrize("cmd", ("basis", "logstrain"))
def test_an_overflowing_b_is_an_error_record(cmd):
    text = ('{"id": 1, "F": [1e200, 0, 0, 0, 1, 0, 0, 0, 1]}\n'
            '{"id": 2, "F": [1, 1e160, 0, 0, 1, 0, 0, 0, 1]}\n'
            '{"id": 3, "F": [1.2, 0.1, 0, 0, 0.9, 0, 0, 0.2, 1.1]}\n')
    proc = run_cli([cmd], text)
    assert proc.returncode == 2
    recs = lines_of(proc)
    assert [r["id"] for r in recs] == [1, 2, 3]
    assert [r.get("error") for r in recs] == ["B = F F^T overflows: its trace is inf"] * 2 + [None]


def test_nonfinite_results_become_error_records():
    text = ('{"id": "triple", "T": [1.3e110, 1.3e110, 1.3e110, 1e95, 0, 0]}\n'
            '{"id": "distinct", "T": [5e103, 2e103, -1e103, 4e102, 0, 0]}\n'
            '{"id": "fine", "T": [5, 2, -1, 0, 0, 0]}\n'
            '{"id": NaN, "T": [5, 2, -1, 0, 0, 0]}\n'
            '{"id": [1, -Infinity], "T": [5, 2, -1, 0, 0, 0]}\n')
    proc = run_cli(["invariants"], text)
    assert proc.returncode == 2

    def refuse(constant):
        raise AssertionError(f"output holds {constant}")
    recs = [json.loads(line, parse_constant=refuse) for line in proc.stdout.splitlines()]
    assert [r["id"] for r in recs] == ["triple", "distinct", "fine", "line 4", "line 5"]
    assert "'I3' is not finite" in recs[0]["error"]
    assert "'I3' is not finite" in recs[1]["error"]
    assert recs[2]["I3"] == pytest.approx(-10.0)
    assert all("'id' holds NaN or Infinity" in r["error"] for r in recs[3:])
    # No answered record of any command holds null where a number belongs
    # (unique_index is null on a distinct spectrum).
    for cmd in RECORD_COMMANDS:
        _, out = _chunk(cmd, text.splitlines())
        answered = [r for r in map(json.loads, out.splitlines()) if "error" not in r]
        assert answered
        for r in answered:
            numbers = [v for k, v in r.items() if k not in ("id", *_WORDS)]
            assert numbers and "null" not in json.dumps(numbers)


def test_help_does_not_list_parallel(capsys):
    for cmd in RECORD_COMMANDS:
        with pytest.raises(SystemExit):
            cli.main([cmd, "--help"])
        text = capsys.readouterr().out
        assert "--output" in text and "--parallel" not in text


# Runs `python -m spectens` with the arguments of this script, as the
# benchmark launches it, and then writes to stderr whether multiprocessing
# was imported.
_LOADS_MULTIPROCESSING = """\
import runpy, sys
sys.argv = ["spectens", *sys.argv[1:]]
try:
    runpy.run_module("spectens", run_name="__main__", alter_sys=True)
finally:
    print("multiprocessing" in sys.modules, file=sys.stderr)
"""


def test_parallel_is_accepted_and_evaluates_in_this_process(tmp_path):
    src = tmp_path / "in.jsonl"
    src.write_text("".join(line + "\n" for line in _good_lines(np.random.default_rng(7), 40)))
    proc = subprocess.run([sys.executable, "-c", _LOADS_MULTIPROCESSING, "stress",
                           "--parallel", "2", "--input", str(src)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert len(proc.stdout.splitlines()) == 40
    assert proc.stderr == "False\n"


def test_parallel_output_matches_serial(tmp_path):
    """Every record command on two chunks with error records: --parallel 2 and
    python -O give the serial run's bytes and exit status."""
    src = tmp_path / "in.jsonl"
    n = cli._CHUNK + 100
    src.write_text("".join(line + "\n" for line in _mixed_lines(np.random.default_rng(5), n)))
    for cmd in RECORD_COMMANDS:
        args = [*_argv(cmd), "--input", str(src)]
        serial = run_cli(args)
        para = run_cli([*args, "--parallel", "2"])
        optimized = subprocess.run([sys.executable, "-O", "-m", "spectens", *args],
                                   capture_output=True, text=True, timeout=120)
        assert serial.returncode == para.returncode == optimized.returncode == 2, cmd
        assert serial.stdout == para.stdout == optimized.stdout, cmd
        # One output line per non-blank input line: every twentieth is blank.
        assert len(serial.stdout.splitlines()) == n - (n + 19) // 20


def test_missing_input_file_is_io_error(tmp_path):
    """The input is opened before the output, so an existing output file is
    left as it was."""
    dst = tmp_path / "out.jsonl"
    dst.write_bytes(b"kept\n")
    proc = run_cli(["eigen", "--input", str(tmp_path / "absent.jsonl"), "--output", str(dst)])
    assert proc.returncode == 1
    assert proc.stderr.startswith("spectens:")
    assert dst.read_bytes() == b"kept\n"


def _same_file(src, tmp_path, form):
    """A path that names the file src: src itself, a symlink or a hard link."""
    if form == "path":
        return src
    other = tmp_path / f"{form}.jsonl"
    (other.symlink_to if form == "symlink" else other.hardlink_to)(src)
    return other


@pytest.mark.parametrize("form", ("path", "symlink", "hardlink"))
def test_an_output_that_is_the_input_file_is_a_usage_error(form, tmp_path):
    """Input is read as output is written, so writing the input file would
    empty it before it is read: refused before anything is opened for
    writing, whatever name the output gives the file."""
    src = tmp_path / "in.jsonl"
    text = _T_LINE.encode() * 3
    src.write_bytes(text)
    dst = _same_file(src, tmp_path, form)
    proc = run_cli(["eigen", "--input", str(src), "--output", str(dst)])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "usage:" in proc.stderr and "the output file is the input file" in proc.stderr
    assert src.read_bytes() == text


def test_stdin_or_stdout_that_is_the_input_file_is_a_usage_error(tmp_path):
    """The same holds where stdin is the file that --output names, or stdout
    is the --input file opened to append, which would feed each output
    line back in as input."""
    src = tmp_path / "in.jsonl"
    text = _T_LINE.encode() * 3
    src.write_bytes(text)
    with open(src, "rb") as fh:
        proc = subprocess.run([sys.executable, "-m", "spectens", "eigen", "--output", str(src)],
                              stdin=fh, capture_output=True, timeout=60)
    assert proc.returncode == 2 and b"the output file is the input file" in proc.stderr
    with open(src, "ab") as fh:
        proc = subprocess.run([sys.executable, "-m", "spectens", "eigen", "--input", str(src)],
                              stdout=fh, stderr=subprocess.PIPE, timeout=60)
    assert proc.returncode == 2 and b"the output file is the input file" in proc.stderr
    assert src.read_bytes() == text
    # Another file, or stdin and stdout that are not regular files, run.
    proc = run_cli(["eigen", "--input", str(src), "--output", str(tmp_path / "out.jsonl")])
    assert proc.returncode == 0 and (tmp_path / "out.jsonl").read_bytes().count(b"\n") == 3


def test_a_pipe_gets_each_chunk_before_the_input_ends():
    """Records are answered a chunk at a time, and each chunk's answers are
    flushed: with stdin still open after a chunk of _CHUNK records, a chunk
    of one record and _CHUNK - 1 blank lines, whose one output line would
    sit in a buffer, and 10 more records, the first _CHUNK + 1 output lines
    arrive; the last 10 follow when stdin closes."""
    n, rng = cli._CHUNK, np.random.default_rng(3)
    lines = _good_lines(rng, n + 11)
    lines[n + 1:n + 1] = [""] * (n - 1)
    # Buffered, as stdout to a pipe is by default.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen([sys.executable, "-m", "spectens", "eigen"], env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    got = []
    reader = threading.Thread(target=lambda: got.extend(proc.stdout.readline()
                                                        for _ in range(n + 1)))
    try:
        reader.start()
        proc.stdin.write("".join(line + "\n" for line in lines))
        proc.stdin.flush()
        reader.join(60)
        answered = len(got)
    finally:
        proc.stdin.close()
        reader.join(60)
        rest = proc.stdout.read()
        proc.stdout.close()
        proc.stderr.close()
        proc.wait(60)
    assert answered == n + 1
    assert not reader.is_alive() and proc.returncode == 0
    assert [json.loads(line)["id"] for line in got] == [f"good {k}" for k in range(n + 1)]
    assert len(rest.splitlines()) == 10


# Runs `python -m spectens <args>` as the benchmark launches it, and then
# writes its peak resident memory (VmHWM, in kB) to stderr.
_ENTRY_PEAK = """\
import runpy, sys
sys.argv = ["spectens", *sys.argv[1:]]
try:
    runpy.run_module("spectens", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as fh:
        print(next(line.split()[1] for line in fh if line.startswith("VmHWM:")), file=sys.stderr)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmHWM from /proc")
def test_peak_memory_does_not_grow_with_the_input(tmp_path):
    """Memory is bounded by a chunk: basis on 40k records peaks within 2 MB
    of basis on 2k records."""
    rng = np.random.default_rng(41)
    peaks = []
    for n in (2000, 40000):
        src = tmp_path / f"in-{n}.jsonl"
        comps = rng.standard_normal((n, 6)).tolist()
        src.write_text("".join(json.dumps({"id": k, "T": t}) + "\n" for k, t in enumerate(comps)))
        proc = subprocess.run([sys.executable, "-c", _ENTRY_PEAK, "basis", "--input", str(src),
                               "--output", str(tmp_path / "out.jsonl")],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        peaks.append(int(proc.stderr) / 1024.0)
    assert abs(peaks[1] - peaks[0]) < 2.0, peaks


# Lines that end in LF, CR and CRLF, a U+2028 inside a string, a byte that
# is not UTF-8, a blank line and a malformed one, and a last line without
# its end.
_LINE_ENDS = ('{"id": "a\u2028b", "T": [3, 2, 1, 0.3, 0.2, 0.1]}\r'.encode()
              + b'{"id": 2, "T": [5, 2, -1, 0, 0, 0]}\r\n'
              + b'{"id": 3, "T": [5, 2, -1, 0, 0, 0]}\n'
              + b'{"id": "\xff", "T": [5, 2, -1, 0, 0, 0]}\r\n'
              + b'\r'
              + b'not json\r\n'
              + b'{"id": 7, "T": [4, 1, 1, 0, 0, 0]}\r'
              + b'{"id": 8, "F": [1.2, 0.1, 0, 0, 0.9, 0, 0, 0.2, 1.1]}')


@pytest.mark.parametrize("size", (1, 2, 3))
def test_line_ends_across_chunk_boundaries(size, monkeypatch, tmp_path):
    """Chunks of 1, 2 and 3 lines end after each kind of line end: the
    output, with the line numbers of the error records, is that of one
    chunk, from --input and from stdin alike."""
    src = tmp_path / "in.jsonl"
    src.write_bytes(_LINE_ENDS)

    def run(chunk, stdin):
        monkeypatch.setattr(cli, "_CHUNK", chunk)
        out = tmp_path / "out.jsonl"
        with open(src, "rb") as fh:
            monkeypatch.setattr(sys, "stdin", fh)
            status = cli.main(["basis", "--output", str(out),
                               *(() if stdin else ("--input", str(src)))])
        return status, out.read_bytes()

    want = run(512, False)
    assert run(size, False) == run(size, True) == want
    recs = [json.loads(line) for line in want[1].splitlines()]
    assert [r["id"] for r in recs] == ["a\u2028b", 2, 3, "line 4", "line 6", 7, 8]
    assert want[0] == 2 and "error" in recs[3] and "error" in recs[4] and "bases" in recs[6]


def test_version_flag():
    proc = run_cli(["--version"])
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("spectens ")


def test_version_flag_through_the_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from spectens.__main__ import main; sys.exit(main())",
         "--version"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().startswith("spectens ")


# Runs `python -m spectens basis` on empty input as the benchmark launches
# it, through runpy, and then prints the BLAS thread setting the CLI ran with
# and the number of objects frozen out of the garbage collector.
_ENTRY_STATE = """\
import gc, os, runpy, sys
sys.argv = ["spectens", "basis"]
try:
    runpy.run_module("spectens", run_name="__main__", alter_sys=True)
finally:
    print(os.environ.get("OPENBLAS_NUM_THREADS"), gc.get_freeze_count())
"""


def _entry_state(script, env=None):
    proc = subprocess.run([sys.executable, "-c", script], input="", env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    blas, frozen = proc.stdout.split()
    return blas, int(frozen)


@pytest.mark.parametrize(("given", "used"), ((None, "1"), ("3", "3")))
def test_cli_runs_one_blas_thread_unless_the_user_sets_more(given, used):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    assert _entry_state(_ENTRY_STATE, env)[0] == used


def test_the_entry_point_freezes_the_import_time_heap():
    """Everything alive once the CLI is imported is frozen before it runs,
    so no collection, the one at shutdown included, walks it again."""
    assert _entry_state(_ENTRY_STATE)[1] > 0


# Runs `python -m spectens <args>` as _ENTRY_STATE does, and then writes the
# spectens modules it loaded to stderr.
_ENTRY_MODULES = """\
import runpy, sys
sys.argv = ["spectens", *sys.argv[1:]]
try:
    runpy.run_module("spectens", run_name="__main__", alter_sys=True)
finally:
    print(*sorted(m for m in sys.modules if m.startswith("spectens.")), file=sys.stderr)
"""
_T_LINE = '{"id": 1, "T": [3.0, 2.0, 1.0, 0.3, 0.2, 0.1]}\n'
_F_LINE = '{"id": 2, "F": [1.2, 0.1, 0.0, 0.0, 0.9, 0.0, 0.0, 0.2, 1.1]}\n'
_F_REFUSED_LINE = '{"id": 3, "F": [-1, 0, 0, 0, 1, 0, 0, 0, 1]}\n'


@pytest.mark.parametrize(("args", "text", "unused"), (
    (["basis"], _T_LINE, {"plasticity", "isofunc", "logstrain"}),
    (["stress", *_STRESS_FLAGS], _T_LINE, {"isofunc", "logstrain"}),
    (["logstrain"], _F_LINE, {"plasticity"}),
    (["basis"], _F_LINE, {"plasticity", "isofunc", "logstrain"}),
    (["basis"], _F_REFUSED_LINE, {"plasticity", "isofunc", "logstrain"})))
def test_a_command_imports_only_the_modules_it_calls(args, text, unused):
    """basis does not load the modules of logstrain and stress, also on an F
    record, whose B = F F^T is a kernel of tensor_core, nor on one that it
    refuses, whose error comes from tensor_core's left_cauchy_green; stress
    does not load those of logstrain, nor logstrain the module of stress."""
    proc = subprocess.run([sys.executable, "-c", _ENTRY_MODULES, *args], input=text,
                          capture_output=True, text=True, timeout=60)
    refused = text is _F_REFUSED_LINE
    assert proc.returncode == (2 if refused else 0), proc.stderr
    loaded = set(proc.stderr.split())
    assert "spectens.cli" in loaded
    assert not loaded & {f"spectens.{m}" for m in unused}
    rec = json.loads(proc.stdout)
    assert rec["id"] == json.loads(text)["id"] and ("error" in rec) == refused


def test_importing_the_package_freezes_nothing_and_sets_no_blas_threads():
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    script = ("import gc, os, spectens, spectens.cli\n"
              "print(os.environ.get('OPENBLAS_NUM_THREADS'), gc.get_freeze_count())\n")
    assert _entry_state(script, env) == ("None", 0)


def test_importing_the_cli_leaves_the_environment_alone(monkeypatch):
    """The setting belongs to the entry point: a process that imports the CLI
    as a library keeps its environment and the BLAS set-up of its children."""
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delitem(sys.modules, "spectens.cli")
    monkeypatch.setattr("spectens.cli", cli)
    before = dict(os.environ)
    fresh = importlib.import_module("spectens.cli")
    assert fresh is not cli
    assert dict(os.environ) == before
