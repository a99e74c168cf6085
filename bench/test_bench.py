"""Checks of the benchmark itself: generator, branch mix and judge."""

import json
from collections import Counter

import pytest

from spectens import SymTensor2, cli, left_cauchy_green, spectrum

from judge import judge
from workloads import WORKLOADS, branch_of


def _cli_output(workload, batch, tmp_path):
    inp, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    inp.write_text(batch.text())
    status = cli.main([*workload.command, "--input", str(inp), "--output", str(out)])
    return out.read_text(), status


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_for_a_seed(name):
    w = WORKLOADS[name]
    assert w.generate(7, 200).text() == w.generate(7, 200).text()
    assert w.generate(7, 200).text() != w.generate(8, 200).text()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_branch_counts_match_the_mix(name):
    w = WORKLOADS[name]
    batch = w.generate(3, 400)
    assert Counter(batch.kinds) == {"distinct": 340, "double": 40, "triple": 20}
    to_tensor = left_cauchy_green if w.key == "F" else (lambda v: SymTensor2(*v))
    for k, (kind, v) in enumerate(zip(batch.kinds, batch.values)):
        if k not in batch.probes:
            tag = spectrum(to_tensor(v)).mult.tag.value
            assert branch_of(tag) == kind, (k, tag, kind)


def test_basis_probes_are_one_percent_at_extreme_magnitude():
    batch = WORKLOADS["basis_bulk"].generate(3, 400)
    assert len(batch.probes) == 4
    for k in batch.probes:
        assert batch.kinds[k] == "distinct"
        assert max(abs(x) for x in batch.values[k]) > 1e99


def test_basis_probe_panel_is_the_same_for_every_seed():
    w = WORKLOADS["basis_bulk"]
    a, b = w.generate(3, 400), w.generate(4, 400)
    assert a.probes != b.probes
    assert sorted(a.values[k] for k in a.probes) == sorted(b.values[k] for k in b.probes)


@pytest.mark.parametrize("name, field", [
    ("basis_bulk", "bases"), ("logstrain_tangent", "eps"), ("stress_return", "sigma")])
def test_judge_accepts_cli_output_and_flags_a_corrupted_record(name, field, tmp_path):
    w = WORKLOADS[name]
    batch = w.generate(5, 100)
    text, status = _cli_output(w, batch, tmp_path)
    sample = frozenset(range(len(batch.lines)))
    verdict = judge(name, batch, text, status, sample)
    assert verdict.correct, verdict.rejected

    lines = text.splitlines()
    victim = next(k for k in range(len(lines)) if k not in batch.probes)
    rec = json.loads(lines[victim])
    values = rec[field][0] if name == "basis_bulk" else rec[field]
    values[0] += 1e-6 * (1.0 + abs(values[0]))
    lines[victim] = json.dumps(rec)
    bad = judge(name, batch, "\n".join(lines), status, sample)
    assert not bad.correct
    assert victim in bad.rejected
    assert bad.failed == verdict.failed + 1


@pytest.mark.parametrize("name, field", [
    ("logstrain_tangent", "deps_dB"), ("stress_return", "tangent")])
def test_judge_flags_a_corrupted_tangent_only_when_sampled(name, field, tmp_path):
    w = WORKLOADS[name]
    batch = w.generate(5, 40)
    text, status = _cli_output(w, batch, tmp_path)
    lines = text.splitlines()
    rec = json.loads(lines[0])
    rec[field][0] += 1e-2 * max(abs(x) for x in rec[field])
    lines[0] = json.dumps(rec)
    assert judge(name, batch, "\n".join(lines), status, frozenset()).correct
    assert not judge(name, batch, "\n".join(lines), status, frozenset({0})).correct


def test_judge_counts_error_records_and_breaks_on_bad_structure(tmp_path):
    w = WORKLOADS["stress_return"]
    batch = w.generate(5, 20)
    text, status = _cli_output(w, batch, tmp_path)
    lines = text.splitlines()
    lines[3] = json.dumps({"id": 3, "error": ""})
    errs = judge(w.name, batch, "\n".join(lines), 2)
    assert errs.correct and errs.errors == 1 and errs.failed == 1
    assert not judge(w.name, batch, "\n".join(lines), 0).correct
    assert not judge(w.name, batch, "\n".join(lines[:-1]), 2).correct
