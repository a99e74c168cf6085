"""Timed passes of one workload.

Untraced (end-to-end metrics): the CLI runs as one serial subprocess at a
time on a generated batch, and the benchmark process calls the workload's
public entry point once per record.  Traced (per-layer metrics): cli.main
runs in-process under cProfile for call counts, then again under the span
tracer; serial CLI runs alternate with --parallel 2 runs.  The judge checks
outputs after each pass, outside the timed regions.

Other tenants of a shared machine slow it by up to 2x, for anything from
milliseconds to minutes.  CLI figures are therefore medians over the rounds
of a run, each CLI run on the batch is paired with a run of the reference
process right before it, and in-process call costs are paired with the
reference kernel timed right after each call (see reference.py and
CallTimes).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from array import array
from pathlib import Path

import numpy as np

from spectens import SymTensor2, cli, left_cauchy_green, spectrum

from judge import judge
import reference
from spans import Tracer, call_counts, installed, median_self_us
from workloads import KINDS, WORKLOADS, YIELD_Q, branch_of

MIN_ROUNDS = 3           # rounds of CLI runs and in-process calls per run, at least
CALL_SHARE = 0.25        # share of a round spent calling the entry point in-process
FD_SAMPLE = 200          # records whose tangents are checked by finite differences
OVERHEAD_ROUNDS = 4      # alternations of untraced and traced call loops
PROBE_RECORDS = 200      # records of another workload used to time layers a workload never calls
CLI_TIMEOUT_S = 150.0

# Per-layer timing metric -> span name; BRANCHED ones are also split by the
# branch each record was built on.
LAYER_SPANS = ("cli.parse", "cli.serialize", "tensor_core.invariants",
               "tensor_core.sym_kron", "tensor_core.d2_I3", "tensor_core.dtheta_dT",
               "spectral.spin", "isofunc.apply_distinct", "isofunc.apply_double",
               "logstrain.left_cauchy_green")
BRANCHED = ("spectral.spectrum", "logstrain.log_strain_from_b",
            "plasticity.reconstruct_stress", "plasticity.consistent_tangent")
LAYER_METRICS = {f"{s}_us": s for s in LAYER_SPANS}
LAYER_METRICS.update({f"{s}_us.{k}": f"{s}.{k}" for s in BRANCHED for k in KINDS})


# `python -m spectens <args>`, after which the process writes its peak
# resident memory (VmHWM, in kB) to the file named by its first argument.
# The rusage of a child would not do: on Linux its ru_maxrss starts from the
# parent's resident size at the fork.
_LAUNCH = """\
import runpy, sys
path = sys.argv.pop(1)
try:
    runpy.run_module("spectens", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as fh:
        peak = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    with open(path, "w") as fh:
        fh.write(peak)
"""


class Cli:
    """Runs the spectens CLI on files, and the reference process, one
    process at a time."""

    def __init__(self, root: Path, workdir: Path):
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.stderr = workdir / "cli-stderr.txt"
        self.peak_file = workdir / "cli-peak-kb.txt"

    def _wall(self, argv: list[str]) -> tuple[float, int]:
        with open(self.stderr, "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                status = proc.wait()
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            return time.perf_counter() - start, status

    def run(self, workload, inp: Path, out: Path, *extra: str) -> tuple[float, float, int]:
        """(wall seconds, peak RSS in MB, exit status) of one CLI run."""
        wall, status = self._wall([sys.executable, "-c", _LAUNCH, str(self.peak_file),
                                   *workload.command, "--input", str(inp),
                                   "--output", str(out), *extra])
        if status not in (0, 2):
            raise RuntimeError(f"spectens {workload.command[0]} exited with "
                               f"{status}; stderr is in {self.stderr}")
        return wall, int(self.peak_file.read_text()) / 1024.0, status

    def reference(self) -> float:
        """Wall seconds of one run of the reference process."""
        wall, status = self._wall([sys.executable, reference.__file__])
        if status:
            raise RuntimeError(f"reference process exited with {status}; "
                               f"stderr is in {self.stderr}")
        return wall


class CallTimes:
    """Repeated timings of the entry point on each of a fixed set of inputs.

    Times are CPU time of the calling thread, so that a call's own garbage
    collections and allocations count but the time another tenant holds the
    processor does not.  Kept: the fastest time of each input, and every
    call's time divided by the reference kernel's time."""

    def __init__(self, call, inputs, seed: int):
        self.call = call
        self.inputs = inputs
        self.best = [math.inf] * len(inputs)
        self.ratios = array("d")
        self._order = list(range(len(inputs)))
        self._rng = random.Random(seed)

    def run(self, seconds: float) -> None:
        """Call every input once per pass, in whole passes, until seconds of
        wall time have elapsed.  Each pass takes a new order, so that a pause
        that recurs with the same period as a pass (a garbage collection, say)
        does not land on the same inputs every time."""
        cpu, wall = time.thread_time_ns, time.perf_counter_ns
        end = wall() + int(seconds * 1e9)
        best, ratios, call, inputs = self.best, self.ratios, self.call, self.inputs
        while True:
            self._rng.shuffle(self._order)
            for i in self._order:
                x = inputs[i]
                start = cpu()
                try:
                    call(x)
                except Exception:  # a failed call is counted by the judge, not timed
                    continue
                mid = cpu()
                reference.kernel()
                ref = cpu() - mid
                if ref > 0 and mid > start:  # the thread clock has been seen not to advance
                    ratios.append((mid - start) / ref)
                    best[i] = min(best[i], mid - start)
            if wall() >= end:
                return

    def best_p50_us(self) -> float:
        return statistics.median(t for t in self.best if t < math.inf) / 1e3

    def ratio_p50_p99(self) -> tuple[float, float]:
        """Median and 99th percentile over all calls, slow ones included."""
        p50, p99 = np.percentile(np.frombuffer(self.ratios), [50.0, 99.0])
        return float(p50), float(p99)


def _fd_sample(workload, seed: int, n: int) -> frozenset:
    rng = np.random.default_rng([seed, workload.index, 1])
    return frozenset(int(i) for i in rng.choice(n, min(FD_SAMPLE, n), replace=False))


def _write_batch(workload, seed: int, n: int, path: Path):
    batch = workload.generate(seed, n)
    path.write_text(batch.text(), encoding="utf-8")
    return batch


def _call_times(workload, seed: int) -> CallTimes:
    batch = workload.generate(seed, workload.n_calls)
    return CallTimes(workload.make_call(), [workload.prepare(v) for v in batch.values], seed)


def untraced(workload, seed: int, seconds: float, root: Path, workdir: Path):
    """End-to-end metrics; returns (metrics, notes, verdict, attempted, failed).

    Each round starts the CLI once on empty input, then the reference
    process and right after it the CLI on the batch, then calls the entry
    point in-process, so that every metric samples the whole run."""
    runner = Cli(root, workdir)
    inp, empty, out = workdir / "in.jsonl", workdir / "empty.jsonl", workdir / "out.jsonl"
    batch = _write_batch(workload, seed, workload.batch, inp)
    empty.write_text("")
    calls = _call_times(workload, seed)
    runner.run(workload, empty, out)  # fills the bytecode and file caches
    runner.reference()

    setup, refs, walls, peaks, digests = [], [], [], [], set()
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_ROUNDS or time.perf_counter() < deadline:
        setup.append(runner.run(workload, empty, out)[0])
        refs.append(runner.reference())
        wall, peak, status = runner.run(workload, inp, out)
        walls.append(wall)
        peaks.append(peak)
        digests.add((hashlib.sha256(out.read_bytes()).hexdigest(), status))
        calls.run((setup[-1] + refs[-1] + wall) * CALL_SHARE / (1.0 - CALL_SHARE))

    verdict = judge(workload.name, batch, out.read_text(encoding="utf-8"), status,
                    _fd_sample(workload, seed, workload.batch))
    if len(digests) > 1:
        verdict.broken.append("CLI output differs between runs on the same input")
    p50, p99 = calls.ratio_p50_p99()
    n = workload.batch
    metrics = {
        "records_per_ref": (statistics.median(n * r / w for r, w in zip(refs, walls)),
                            "1/ref"),
        "setup_s": (statistics.median(setup), "s"),
        "call_p50_ref": (p50, "ref"),
        "call_p99_ref": (p99, "ref"),
        "ok_share": (1.0 - verdict.failed / n, "ratio"),
        "peak_rss_mb": (statistics.median(peaks), "MB"),
    }
    notes = {"rounds": len(walls), "records_per_s": statistics.median(n / w for w in walls),
             "reference_s": statistics.median(refs), "call_samples": len(calls.ratios),
             "best_call_p50_us": calls.best_p50_us(),
             "failed_share": verdict.failed / n}
    # Every round's output is the same bytes (checked above), so the judged
    # batch is counted once: attempted and failed depend on the input only,
    # not on how many rounds the machine's speed allowed.
    return metrics, notes, verdict, n, verdict.failed


def _traced_pass(workload, inp: Path, out: Path) -> tuple[Tracer, int]:
    """cli.main in-process under the span tracer; span 0 is cli.main."""
    tracer = Tracer()
    with installed(tracer):
        status = tracer.wrap("cli.main", cli.main)(
            [*workload.command, "--input", str(inp), "--output", str(out)])
    return tracer, status


def _layer_times(tracer: Tracer, batch) -> dict[str, float]:
    by_span = median_self_us(tracer, lambda rec: batch.kinds[rec] if rec >= 0 else "none")
    return {m: by_span[s] for m, s in LAYER_METRICS.items() if s in by_span}


def _probe_layer_times(workload, seed: int, workdir: Path) -> dict[str, float]:
    inp, out = workdir / "probe-in.jsonl", workdir / "probe-out.jsonl"
    batch = _write_batch(workload, seed, PROBE_RECORDS, inp)
    return _layer_times(_traced_pass(workload, inp, out)[0], batch)


def _plastic_records(out_lines) -> int:
    count = 0
    for rec in out_lines:
        s = rec.get("sigma")
        if s:
            m = (s[0] + s[1] + s[2]) / 3.0
            dev2 = sum((x - m) ** 2 for x in s[:3]) + 2.0 * sum(x * x for x in s[3:])
            count += math.sqrt(1.5 * dev2) >= YIELD_Q * (1.0 - 1e-9)
    return count


def _classify(workload, batch, verdict) -> dict[str, int]:
    """Records per branch as spectrum classifies them; a record classified
    on another branch than it was built on is rejected."""
    counts = dict.fromkeys(KINDS, 0)
    to_tensor = left_cauchy_green if workload.key == "F" else (lambda v: SymTensor2(*v))
    for k, (kind, v) in enumerate(zip(batch.kinds, batch.values)):
        try:
            tag = spectrum(to_tensor(v)).mult.tag.value
        except Exception:  # the CLI reports the same record as an error
            continue
        got = branch_of(tag)
        counts[got] += 1
        if got != kind:
            verdict.rejected.setdefault(k, f"classified {tag}, built {kind}")
    return counts


def traced(workload, seed: int, seconds: float, root: Path, workdir: Path, out_dir: Path):
    """Per-layer metrics; returns (metrics, notes, verdict, attempted, failed)."""
    n = workload.n_trace
    inp, out = workdir / "trace-in.jsonl", workdir / "trace-out.jsonl"
    batch = _write_batch(workload, seed, n, inp)
    counts = call_counts([*workload.command, "--input", str(inp),
                          "--output", str(workdir / "count-out.jsonl")], n)
    tracer, status = _traced_pass(workload, inp, out)
    tracer.write(out_dir / f"spans-{workload.name}-seed{seed}.jsonl")
    text = out.read_text(encoding="utf-8")
    verdict = judge(workload.name, batch, text, status, _fd_sample(workload, seed, n))
    records = _classify(workload, batch, verdict)

    layers = _layer_times(tracer, batch)
    for other in WORKLOADS.values():
        if other is not workload and len(layers) < len(LAYER_METRICS):
            layers = {**_probe_layer_times(other, seed, workdir), **layers}

    # Tracing overhead: the same call loop with and without spans, alternating.
    plain, spanned = _call_times(workload, seed), _call_times(workload, seed)
    loop_tracer = Tracer()
    wrapped = loop_tracer.wrap("call", spanned.call)

    def spanned_call(x):
        loop_tracer.spans.clear()  # only the cost of recording spans matters here
        return wrapped(x)
    spanned.call = spanned_call
    for _ in range(OVERHEAD_ROUNDS):
        plain.run(0.3 * seconds / OVERHEAD_ROUNDS / 2)
        with installed(loop_tracer):
            spanned.run(0.3 * seconds / OVERHEAD_ROUNDS / 2)

    runner = Cli(root, workdir)
    inp, out_serial, out_par = (workdir / "par-in.jsonl", workdir / "par-serial.jsonl",
                                workdir / "par-2.jsonl")
    _write_batch(workload, seed, workload.batch, inp)
    runner.run(workload, inp, out_serial)
    serial, par2 = [], []
    deadline = time.perf_counter() + 0.4 * seconds
    while len(serial) < 2 or time.perf_counter() < deadline:
        serial.append(runner.run(workload, inp, out_serial)[0])
        par2.append(runner.run(workload, inp, out_par, "--parallel", "2")[0])
    if out_par.read_bytes() != out_serial.read_bytes():
        verdict.broken.append("--parallel 2 output differs from serial output")

    root_span = tracer.spans[0]
    compute = sum(end - start for name, start, end, parent, _ in tracer.spans
                  if parent == 0 and not name.startswith("cli."))
    metrics = {m: (layers.get(m, 0.0), "us") for m in LAYER_METRICS}
    metrics.update({
        "cli.bytes_out_per_record": (len(text.encode()) / n, "B"),
        "cli.compute_share": (compute / (root_span[2] - root_span[1]), "ratio"),
        "cli.par2_speedup": (statistics.median(serial) / statistics.median(par2), "ratio"),
        "trace.overhead_ref": (spanned.ratio_p50_p99()[0] - plain.ratio_p50_p99()[0], "ref"),
        "plasticity.plastic_records": (_plastic_records(map(json.loads, text.splitlines())),
                                       "count"),
    })
    metrics.update({f"spectral.records.{k}": (c, "count") for k, c in records.items()})
    metrics.update({f"calls_per_record.{k}": (c, "calls/record") for k, c in counts.items()})
    return metrics, {}, verdict, n, verdict.failed
