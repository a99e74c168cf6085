"""spectens benchmark: CLI throughput and per-call latency on three
branch-mixed workloads, with per-layer timings and exact call counts.

Run from the repository root:

    python3 bench/run.py --workload basis_bulk --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all                  # every workload, both modes

--seconds defaults to run_seconds in BENCHMARK.json.  Each metric is
printed as `<workload> <name> <value> <unit>`; the last line is one JSON
object {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.  Spans and a copy of every result go to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOAD_NAMES = ("basis_bulk", "logstrain_tangent", "stress_return")


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, help="default: run_seconds in BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p


def _environment(root: Path) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    head = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
        head = proc.stdout.strip() if proc.returncode == 0 else None
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "git_sha": head, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "spectens" / "__init__.py").is_file():
        print("bench: src/spectens not found; run from the repository root", file=sys.stderr)
        return 1
    sys.path.insert(0, str(root / "src"))
    import measure
    from workloads import WORKLOADS

    declared = json.loads((root / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"] if args.seconds is None else args.seconds
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    env = _environment(root)
    print("env", json.dumps(env))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    modes = (0, 1) if args.workload == "all" else (args.trace,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for trace in modes:
            tag = f"{name}-seed{args.seed}-trace{trace}"
            workdir = out_dir / f"work-{tag}-{os.getpid()}"
            workdir.mkdir()
            try:
                if trace:
                    metrics, notes, verdict, attempted, failed = measure.traced(
                        WORKLOADS[name], args.seed, seconds, root, workdir, out_dir)
                else:
                    metrics, notes, verdict, attempted, failed = measure.untraced(
                        WORKLOADS[name], args.seed, seconds, root, workdir)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            units = {m: u for m, (_, u) in metrics.items()}
            if units != {m["name"]: m["unit"]
                         for m in declared["per_layer" if trace else "end_to_end"]}:
                raise RuntimeError(f"metrics or units differ from BENCHMARK.json: {units}")
            for metric, (value, unit) in metrics.items():
                print(name, metric, value, unit)
            for key, value in notes.items():
                print(name, key, value)
            for k, why in list(verdict.rejected.items())[:10]:
                print(name, "rejected record", k, why)
            for why in verdict.broken:
                print(name, "broken", why)
            result = {"correct": verdict.correct, "attempted": attempted, "failed": failed,
                      "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}}
            (out_dir / f"result-{tag}.json").write_text(
                json.dumps({"env": env, "workload": name, "seed": args.seed,
                            "seconds": seconds, **result, **notes}, indent=1))
            summary["correct"] &= result["correct"]
            summary["attempted"] += attempted
            summary["failed"] += failed
            prefix = f"{name}/" if len(names) > 1 else ""
            summary["metrics"].update({prefix + m: r for m, r in result["metrics"].items()})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
