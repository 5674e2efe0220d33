"""Whole-pipeline benchmark: three workloads, timed from outside, split by layer.

Run from the repository root::

    python3 perfbench/run.py --workload campaign_day --seed 1 --seconds 6 --trace 0

``--trace 0`` sets the workload up twice (the median is ``setup_s``),
one world at a time; on each world it runs a first op with its calls
shuffled (left out of the medians), then repeats the op for half of
``--seconds`` and at least once, and prints the end-to-end metrics.  ``--trace 1`` is the separate traced
run: it rebuilds the world layer by layer, times the op's layers with
:mod:`repro.perf` off and on, and prints the per-layer metrics.  Either
way the last line of standard output is one JSON object::

    {"correct": true, "attempted": 4, "failed": 0, "metrics": {...}}

The process re-executes itself once with a fixed ``PYTHONHASHSEED`` and
single-threaded BLAS/OpenMP, and runs every op in this one process on
one thread.  It writes no files.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: The environment every benchmark process runs under.
FIXED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


def fix_environment() -> None:
    """Re-execute this script under :data:`FIXED_ENV` unless already there."""
    if all(os.environ.get(name) == value for name, value in FIXED_ENV.items()):
        return
    env = dict(os.environ, **FIXED_ENV)
    os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main() -> int:
    args = parse_args(sys.argv[1:])
    source = ROOT / "src" / "repro"
    if not (source / "__init__.py").is_file():
        print(f"error: no source tree at {source}; run from a full checkout", file=sys.stderr)
        return 2
    fix_environment()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import harness

    return harness.main(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
