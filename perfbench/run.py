#!/usr/bin/env python3
"""Entry point of the seglm decode benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload long-prompt-beam --seed 0 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is the separate traced run that reports the per-layer metrics and the
tracing overhead. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Exit code 0
means every output checked out; 1 means a request failed or a self-check
tripped; 2 means the benchmark could not start (bad arguments, or no
``src/seglm`` next to this directory).

This file only pins the BLAS/OpenMP thread pools and locates the runtime:
the thread variables are read when numpy loads its BLAS, so they are set
before anything imports numpy.
"""
import argparse
import os
import sys
from pathlib import Path

from workloads import WORKLOADS

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="length of the timed closed loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread pools were pinned")
    for var in THREAD_VARS:
        os.environ[var] = "1"

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "seglm" / "__init__.py").is_file():
        print(f"error: no seglm runtime at {src / 'seglm'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import bench  # noqa: E402  (needs the pinned environment and src on the path)
    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace), root)


if __name__ == "__main__":
    sys.exit(main())
