"""sinet's benchmark: one workload per run, end-to-end metrics or, with
``--trace 1``, per-layer metrics from spans around sinet's public functions.

    python3 benchmarks/run.py --workload corpus --seed 1 --seconds 15 --trace 0

``--workload all`` runs every workload, each in its own process, one after
the other.

Run from the root of a checkout. The run makes its inputs under
``.bench_work/``, measures closed-loop passes (one client, one process) for
``--seconds``, checks every pass's outputs, writes a result file with the
environment and input hashes, and prints a JSON object as its last line.
See benchmarks/README.md for the metrics and workloads.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sinet" / "__init__.py").is_file():
        print(f"error: no sinet sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    # One BLAS/OpenMP thread, set before numpy loads and inherited by the
    # set-up subprocesses. sinet's arrays are small, and on a shared host a
    # second pool thread makes every BLAS call wait for a core that another
    # tenant may hold: long_history passes ran 5-20 % slower and spread
    # wider with two threads than with one.
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import measure

    if args.workload == "all":
        return measure.run_all(args, Path(__file__).resolve())
    if args.workload not in measure.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(measure.WORKLOADS)}", file=sys.stderr)
        return 2
    return measure.run(args, ROOT, SRC, nproc)


if __name__ == "__main__":
    sys.exit(main())
