"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload social-pr --seed 1 --seconds 24 --trace 0

The workload's input graph is generated from ``--seed``; the run
measures for about ``--seconds`` seconds, checks every query's output,
prints a detail line and, as the last line of standard output, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
separate traced run (its spans are written to ``perfbench/out/``).
Workloads and metrics are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DEFAULT_SEED = 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC})", file=sys.stderr)
        return 2
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"  # also for spawned probes
    sys.path.insert(0, str(SRC))
    from measure import run_workload
    from procs import stop_all
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        result = run_workload(
            workload, args.seed, args.seconds, bool(args.trace), HERE / "out"
        )
    finally:
        stop_all()
    print(result.pop("detail"))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    sys.exit(main())
