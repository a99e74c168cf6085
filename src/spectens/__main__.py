"""`python -m spectens` and the `spectens` console script."""

import gc
import os
import sys


def main() -> int:
    # One BLAS thread unless the user sets one: OpenBLAS starts a worker per
    # core as numpy loads, which costs more start-up than the CLI's small
    # products ((n, 7) @ (7, 36) at most) could ever win back.  Set here and
    # not in a library module, so that importing spectens leaves the
    # environment, and the BLAS of the importing process, alone.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as run

    # Importing numpy, argparse and spectens leaves some 20k tracked objects
    # that live until exit.  Frozen, they are skipped by every later
    # collection, the one at shutdown included.  Cycles made during the run
    # are still collected.
    gc.freeze()
    return run()


if __name__ == "__main__":
    sys.exit(main())
