"""End-to-end command-line checks through subprocess, one JSON record per line."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from spectens import (
    ClassifyTols,
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
from spectens.tensor_core import TAU_GAP, TAU_REL

from util import cli_record, quat_rotation, spin_den


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
    tols = ClassifyTols(tau_rel=TAU_REL, tau_gap=TAU_GAP)
    rm = vonmises_demo_map(2.0, 1.0, 0.5)
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
            row, extra = cli._dispatch(cmd, cli._record_tensor(rec), tols, rm)
            res = cli_record(cmd, rec_id, cli._checked_finite(cmd, row), extra)
        except Exception as exc:
            res = {"id": rec_id, "error": str(exc) or type(exc).__name__}
            status = 2
        out.append(json.dumps(res))
    return status, out


def _cfg(cmd):
    """The _run_chunk configuration of cmd with the options of _argv."""
    return {"command": cmd, "tau_rel": TAU_REL, "tau_gap": TAU_GAP,
            "bulk": 2.0, "shear": 1.0, "yield_q": 0.5}


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
    tols = ClassifyTols(tau_rel=TAU_REL, tau_gap=TAU_GAP)
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
        sp = spectrum(t, tols)
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
            sig = _map_at(sp, vonmises_demo_map(2.0, 1.0, 0.5))[4]
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


@settings(max_examples=60)
@given(hs.lists(_TENSOR, min_size=1, max_size=8), hs.lists(_GRADIENT, max_size=4))
def test_chunked_output_equals_scalar_dispatch_property(draws, gradients):
    """T records and F records, each with distinct, two equal or three equal
    eigenvalues or stretches."""
    lines = []
    for k, (e, rep, quat, log10_scale) in enumerate(draws):
        eigs = np.array([e[i] for i in rep]) * 10.0 ** log10_scale
        lines.append(_tensor_line(k, eigs, _unit(quat)))
    for k, (s, rep, q1, q2) in enumerate(gradients, start=len(lines)):
        lines.append(_gradient_line(k, [s[i] for i in rep], _unit(q1), _unit(q2)))
    for cmd in RECORD_COMMANDS:
        ok, text = cli._run_chunk((_cfg(cmd), 1, lines))
        want_status, want = _scalar_output(cmd, lines)
        assert (0 if ok else 2) == want_status
        _assert_same_records(cmd, lines, text.splitlines(), want)


_IDS = (7, 2 ** 64 + 3, -12, 1.5, -0.0, 'say "hi" \\ gr\u00fc\u00dfe \u2211', "", True, False,
        None, [1, "a", [2.5]], {"k": [1.0, None], "\u00e9": {}})
_EXTRAS = {"invariants": (True, False), "stress": (None,),
           **{cmd: cli._MULTS for cmd in ("eigen", "basis", "spin", "logstrain")}}
_WIDTH = {"invariants": 6, "eigen": 3, "basis": 21, "spin": 108, "logstrain": 42, "stress": 42}


@pytest.mark.parametrize("cmd", RECORD_COMMANDS)
def test_serializer_matches_json_reference(cmd):
    """Every template of cmd, filled with the JSON text of every kind of id
    and with numbers across the float range, is json.dumps of the dict."""
    rng = np.random.default_rng(3)
    special = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
               1.0, 0.1, -1e16, 1e-7, 123456789012345678.0, 1 / 3]
    for extra in _EXTRAS[cmd]:
        for rec_id in _IDS:
            row = [float(x) for x in rng.standard_normal(_WIDTH[cmd])
                   * 10.0 ** rng.integers(-300, 300, _WIDTH[cmd])]
            row[:len(special)] = special[:len(row)]
            rng.shuffle(row)
            got = cli._template(cmd, extra) % (cli._id_text(rec_id), *row)
            assert got == json.dumps(cli_record(cmd, rec_id, row, extra)) + "\n"


@pytest.mark.parametrize("cmd", RECORD_COMMANDS)
def test_every_id_type_is_written_as_json_writes_it(cmd):
    lines = [json.dumps({"id": rec_id, "T": [3.0, 2.0, 1.0, 0.3, 0.2, 0.1]}) for rec_id in _IDS]
    lines.append('{"T": [3.0, 2.0, 1.0, 0.3, 0.2, 0.1]}')
    _, text = cli._run_chunk((_cfg(cmd), 1, lines))
    for rec_id, line in zip([*_IDS, f"line {len(lines)}"], text.splitlines()):
        assert line.startswith('{"id": ' + json.dumps(rec_id) + ", ")
        assert "error" not in json.loads(line)


def _good_lines(rng, n):
    r = quat_rotation(rng.standard_normal(4) / 2.0)
    return [_tensor_line(f"good {k}", rng.uniform(0.5, 2.0, 3), r) for k in range(n)]


@pytest.mark.parametrize("cmd", RECORD_COMMANDS)
def test_malformed_records_match_the_scalar_path(cmd):
    """Each bad record among good ones, a component of 10**400 (the column
    checks raise, so the whole chunk takes the scalar path), a chunk of only
    bad records, and good records with leading whitespace each give the
    per-record path's output."""
    rng = np.random.default_rng(11)
    overflow = '{"id": "huge", "T": [1, 2, 3, 0, 0, 1' + "0" * 400 + "]}"
    chunks = [[*_good_lines(rng, 3), bad, *_good_lines(rng, 2)]
              for bad in (*_MALFORMED, overflow)]
    chunks.append([*_MALFORMED, overflow])
    chunks.append(["  \t" + line for line in _good_lines(rng, 4)])
    for lines in chunks:
        ok, text = cli._run_chunk((_cfg(cmd), 1, lines))
        want_status, want = _scalar_output(cmd, lines)
        assert (0 if ok else 2) == want_status
        _assert_same_records(cmd, lines, text.splitlines(), want)


def test_double_row_with_zero_j2_takes_the_scalar_path():
    """With a negative --tol-triple, a spherical tensor classifies as double,
    whose scalar bases divide by sqrt(3 J2) = 0."""
    cfg = {**_cfg("eigen"), "tau_rel": -1.0}
    lines = ['{"id": 1, "T": [2, 2, 2, 0, 0, 0]}', '{"id": 2, "T": [3, 2, 1, 0, 0, 0]}']
    ok, text = cli._run_chunk((cfg, 1, lines))
    assert not ok
    assert [json.loads(line).get("error") for line in text.splitlines()] == \
        ["float division by zero", None]


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
        ok, text = cli._run_chunk((_cfg(cmd), 1, lines))
        assert ok and not seen, cmd
        want_status, want = _scalar_output(cmd, lines)
        assert want_status == 0
        _assert_same_records(cmd, lines, text.splitlines(), want)
        branches = [spectrum(cli._record_tensor(json.loads(line))).mult.tag for line in lines]
        assert set(branches) == set(MultTag), cmd


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


@pytest.mark.parametrize("cmd, option, value", (("eigen", "--tol-gap", "nan"),
                                                ("eigen", "--tol-triple", "inf"),
                                                ("stress", "--tol-triple", "nan")))
def test_tolerances_that_are_not_finite_are_a_usage_error(cmd, option, value):
    record = '{"id": 1, "T": [4, 1, 1, 0, 0, 0]}\n'
    for parallel, stdin in (("1", record), ("2", record), ("1", "")):
        proc = run_cli([cmd, option, value, "--parallel", parallel], stdin)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "usage:" in proc.stderr and "tolerances must be finite" in proc.stderr
        assert "Traceback" not in proc.stderr
    # A negative floor stays accepted.
    proc = run_cli(["eigen", "--tol-triple=-1e-10"], record)
    assert proc.returncode == 0 and lines_of(proc)[0]["multiplicity"] == "double_high_unique"


@pytest.mark.parametrize("args", (["eigen", "--parallel", "0"], ["spin", "--parallel", "-3"],
                                  ["verify", "--count", "0"], ["verify", "--count", "-5"]))
def test_counts_below_one_are_a_usage_error(args):
    proc = run_cli(args, '{"id": 1, "T": [5, 2, -1, 0, 0, 0]}\n')
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "usage:" in proc.stderr and "must be at least 1" in proc.stderr


def test_error_message_is_never_empty(monkeypatch):
    class Bare(Exception):
        pass

    def bare(*args):
        raise Bare()
    monkeypatch.setattr(cli, "_dispatch", bare)
    ok, text = cli._run_chunk((_cfg("spin"), 1, ['{"id": 9, "T": [4, 1, 1, 0, 0, 0]}']))
    assert not ok
    assert json.loads(text) == {"id": 9, "error": "Bare"}


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
    proc = run_cli(["eigen", "--input", str(tmp_path / "absent.jsonl")])
    assert proc.returncode == 1
    assert proc.stderr.startswith("spectens:")


def test_version_flag():
    proc = run_cli(["--version"])
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("spectens ")
