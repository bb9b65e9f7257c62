#!/usr/bin/env python3
"""sawtoothlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src`` directory, nothing needs installing. NAME is one of reference_b1,
minibatch_sweep, fit_epochs, overlap_mc, or ``all`` to run the four in turn.

With ``--trace 0`` the workload's CLI commands run as child processes, one
after another (a closed loop with one client), for about S seconds, and the
end-to-end metrics are reported. With ``--trace 1`` the workload runs once
through the CLI and is then replayed in-process through the package's public
functions with spans around each call, followed by the per-layer timings.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Everything before it
is a human-readable report. See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PROGRAM = HERE.parent / "src" / "sawtoothlab" / "__init__.py"
WORKLOADS = ("reference_b1", "minibatch_sweep", "fit_epochs", "overlap_mc")

# Every BLAS/OpenMP pool, here and in each child, gets one thread: the
# workloads' BLAS calls sit below OpenBLAS's threading thresholds, so more
# threads would only add contention, and with the sweep's two workers this
# keeps workers x threads <= nproc on a 2-core machine.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record",
        action="store_true",
        help="write the outputs seen on the default seed to perfbench/expected.json "
        "instead of checking against it",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not PROGRAM.is_file():
        print(f"error: no sawtoothlab sources at {PROGRAM.parent}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(PROGRAM.parent.parent))
    import endtoend  # imports numpy and sawtoothlab, so only after the caps

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    return endtoend.main(names, args.seed, args.seconds, bool(args.trace), args.record)


if __name__ == "__main__":
    sys.exit(main())
