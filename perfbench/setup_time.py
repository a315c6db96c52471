"""Time one cold set-up of a workload in a fresh interpreter.

    python3 perfbench/setup_time.py --workload NAME --seed N

Prints the seconds from the first import (numpy, rwkvp) to the end of the
workload's set-up (corpus, base build, checkpoint round trip, extension).
``run.py`` runs it several times per run, spread over the run, for setup_s.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import run  # noqa: E402  (pins the BLAS threads before numpy loads)
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    rw, _ = run.load_program(Path.cwd())
    WORKLOADS[args.workload](rw, args.seed, run.OUT).setup()
    print(time.perf_counter() - T_START)
    return 0


if __name__ == "__main__":
    sys.exit(main())
