"""Spans and call counts recorded from outside the program.

The tracer wraps public functions of the spectens modules, and the JSON
encode/decode calls of the CLI, by rebinding the module attributes for the
duration of one pass.  Each span is (name, start_ns, end_ns, parent, record):
parent is the index of the enclosing span or -1, and record is the number
of the input line being processed, advanced by every decode.  Spans stay in
memory and are written out once the benchmark ends.

Call counts come from cProfile attached to an in-process cli.main run; only
its call counts are read, never its timings.
"""

from __future__ import annotations

import contextlib
import cProfile
import json
import pstats
import statistics
import time
from collections import defaultdict

from spectens import cli, isofunc, logstrain, plasticity, spectral, tensor_core

_MODULES = (cli, isofunc, logstrain, plasticity, spectral, tensor_core)

# Span name -> (defining module, attribute).  The CLI layer is represented
# by its decode ("cli.parse") and encode ("cli.serialize") calls.
TRACED = {
    "tensor_core.invariants": (tensor_core, "invariants"),
    "tensor_core.sym_kron": (tensor_core, "sym_kron"),
    "tensor_core.d2_I3": (tensor_core, "d2_I3"),
    "tensor_core.dtheta_dT": (tensor_core, "dtheta_dT"),
    "spectral.spectrum": (spectral, "spectrum"),
    "spectral.spin": (spectral, "spin"),
    "isofunc.apply_distinct": (isofunc, "apply_distinct"),
    "isofunc.apply_double": (isofunc, "apply_double"),
    "logstrain.left_cauchy_green": (logstrain, "left_cauchy_green"),
    "logstrain.log_strain_from_b": (logstrain, "log_strain_from_b"),
    "plasticity.reconstruct_stress": (plasticity, "reconstruct_stress"),
    "plasticity.consistent_tangent": (plasticity, "consistent_tangent"),
}

# Names whose calls per record are counted, with the code object to count.
COUNTED = {
    "invariants": (tensor_core, "invariants"),
    "spectrum": (spectral, "spectrum"),
    "spin": (spectral, "spin"),
    "sym_kron": (tensor_core, "sym_kron"),
    "d2_I3": (tensor_core, "d2_I3"),
    "SymTensor4": (tensor_core, "SymTensor4"),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.record = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn, starts_record: bool = False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if starts_record:
                self.record += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.record)
        return traced

    def self_times(self) -> list[tuple[str, int, int]]:
        """(name, record, self time in ns) per span: its duration less the
        durations of its direct children."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(name, rec, end - start - child[i])
                for i, (name, start, end, parent, rec) in enumerate(self.spans)]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, rec in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "record": rec}) + "\n")


class _TracedJson:
    """Stands in for the json module inside spectens.cli."""

    def __init__(self, tracer: Tracer):
        self.loads = tracer.wrap("cli.parse", json.loads, starts_record=True)
        self.dumps = tracer.wrap("cli.serialize", json.dumps)

    def __getattr__(self, name):
        return getattr(json, name)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Rebind every traced function, wherever a spectens module imported it,
    to its span-recording wrapper; restore all bindings on exit."""
    undo = [(cli, "json", cli.json)]
    cli.json = _TracedJson(tracer)
    try:
        for name, (home, attr) in TRACED.items():
            orig = getattr(home, attr, None)
            if orig is None:
                continue
            wrapper = tracer.wrap(name, orig)
            for mod in _MODULES:
                if getattr(mod, attr, None) is orig:
                    undo.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)
        yield tracer
    finally:
        for mod, attr, orig in reversed(undo):
            setattr(mod, attr, orig)


def call_counts(argv: list[str], records: int) -> dict[str, float]:
    """Calls per record of each COUNTED name during cli.main(argv)."""
    prof = cProfile.Profile()
    prof.enable()
    try:
        cli.main(argv)
    finally:
        prof.disable()
    stats = pstats.Stats(prof).stats
    out = {}
    for name, (home, attr) in COUNTED.items():
        obj = getattr(home, attr, None)
        if isinstance(obj, type):
            obj = obj.__init__
        code = getattr(obj, "__code__", None)
        calls = 0
        if code is not None:
            key = (code.co_filename, code.co_firstlineno, code.co_name)
            calls = stats.get(key, (0, 0))[1]
        out[name] = calls / records
    return out


def median_self_us(tracer: Tracer, label) -> dict[str, float]:
    """Median self time in microseconds per span name, and per
    'name.<label(record)>' for each record label."""
    groups = defaultdict(list)
    for name, rec, ns in tracer.self_times():
        groups[name].append(ns)
        groups[f"{name}.{label(rec)}"].append(ns)
    return {k: statistics.median(v) / 1e3 for k, v in groups.items()}
