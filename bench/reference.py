"""Fixed reference work that does not touch spectens.

Timings of spectens are divided by timings of this work taken right next to
them.  Other tenants of a shared machine slow both alike, so the ratio
cancels most of their effect.  The work mixes what spectens does per record:
small frozen dataclasses and math-module scalars, small-array numpy calls
and, in the process form, interpreter start-up, the numpy import and JSON.

    python3 bench/reference.py      # the reference process
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

PROCESS_ITERATIONS = 4000

_VALS = (0.3, -1.2, 2.5, 0.7, 0.1, -0.4)
_VEC = np.arange(6.0)


@dataclass(frozen=True, slots=True)
class _Triple:
    a: float
    b: float
    c: float


def kernel() -> float:
    """One unit of reference work, about 45 us on a quiet machine."""
    acc = 0.0
    for k in range(12):
        p = _Triple(_VALS[k % 6], _VALS[(k + 1) % 6], _VALS[(k + 2) % 6])
        q = _Triple(p.a * p.b + 1.0, math.sqrt(abs(p.b) + 1.0), math.sin(p.c))
        half = tuple(0.5 * x for x in (q.a, q.b, q.c))
        acc += q.a + q.b * q.c + half[0] - half[2]
    m = np.zeros((6, 6))
    for _ in range(4):
        outer = np.outer(_VEC, _VEC)
        m = np.array(m + outer @ outer * 1e-6, dtype=float, copy=True)
    return acc + float(m[0, 0])


def main() -> int:
    lines = [json.dumps({"id": k, "x": _VALS, "y": kernel()})
             for k in range(PROCESS_ITERATIONS)]
    return 0 if len(lines) == PROCESS_ITERATIONS else 1


if __name__ == "__main__":
    sys.exit(main())
