"""Perf benchmark: out-of-core grid execution under memory oversubscription.

Standalone (no pytest-benchmark dependency)::

    PYTHONPATH=src python benchmarks/bench_grid_oversubscribe.py \
        [--out benchmarks/out/BENCH_grid.json] \
        [--baseline benchmarks/BENCH_grid_baseline.json]

Runs BFS and PR on a skewed R-MAT graph twice: once fully in RAM, and
once supervised with a memory budget of a quarter of the three-copy
layout — forcing the degradation ladder onto the spilled grid.  Asserts
*bit-identical* results and that the budget governor's resident
high-water mark never exceeded the budget before timing is even
reported.  Writes ``BENCH_grid.json`` rows ``{name, vertices, edges,
budget_bytes, high_water_bytes, block_reads, cache_hits, evictions,
blocks_skipped, inram_s, grid_s, overhead}``.

Gates:

* **correctness (always enforced)** — bit-identity and the high-water
  bound are hard failures, machine speed cannot excuse them.
* **overhead gate** — against the committed baseline, fail when a row's
  grid-over-RAM slowdown grows beyond ``baseline * REGRESSION_RATIO``.
  The streamed path re-reads evicted blocks, so some overhead is
  expected; the gate catches it running away.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.algorithms import registry  # noqa: E402
from repro.core import Engine, EngineOptions  # noqa: E402
from repro.graph.generators import rmat  # noqa: E402
from repro.layout.store import GraphStore  # noqa: E402
from repro.partition.storage import StorageModel  # noqa: E402
from repro.resilience import ResiliencePolicy  # noqa: E402

#: regression gate: fail when a row's overhead doubles vs the baseline.
REGRESSION_RATIO = 2.0

#: oversubscription factor: budget = three-copy bytes / this.
OVERSUBSCRIBE = 4

#: (row name, algorithm code, rmat scale, avg degree, partitions).
WORKLOADS = [
    ("BFS_rmat13", "BFS", 13, 12.0, 48),
    ("PR_rmat12", "PR", 12, 12.0, 48),
]


def timed(fn) -> tuple[float, object]:
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def bench_workload(
    name: str, code: str, scale: int, degree: float, partitions: int
) -> dict:
    spec = registry.get(code)
    edges = rmat(scale, degree, seed=11)
    store = GraphStore.build(
        edges, num_partitions=partitions, balance=spec.balance
    )
    layout_bytes = StorageModel(
        edges.num_vertices, edges.num_edges
    ).graphgrind_v2_bytes()
    budget = max(1, layout_bytes // OVERSUBSCRIBE)

    inram_engine = Engine(store, EngineOptions(num_threads=4))
    inram_s, inram_result = timed(lambda: spec.run(inram_engine))

    grid_engine = Engine(
        store,
        EngineOptions(num_threads=4),
        resilience=ResiliencePolicy(memory_budget=budget),
    )
    grid_s, grid_result = timed(lambda: spec.run(grid_engine))

    if grid_engine.grid is None:
        raise SystemExit(f"{name}: the budgeted run never spilled to the grid")
    inram_arrays = registry.result_arrays(inram_result)
    grid_arrays = registry.result_arrays(grid_result)
    for key in inram_arrays:
        if not np.array_equal(inram_arrays[key], grid_arrays[key]):
            raise SystemExit(f"{name}: field {key!r} not bit-identical")
    governor = grid_engine.grid.budget
    if governor.high_water_bytes > budget:
        raise SystemExit(
            f"{name}: resident high-water {governor.high_water_bytes} B "
            f"exceeded the {budget} B budget"
        )

    stats = grid_engine.grid.stats
    return {
        "name": name,
        "vertices": int(edges.num_vertices),
        "edges": int(edges.num_edges),
        "budget_bytes": int(budget),
        "high_water_bytes": int(governor.high_water_bytes),
        "block_reads": int(stats.block_reads),
        "cache_hits": int(stats.cache_hits),
        "evictions": int(governor.evictions),
        "blocks_skipped": int(stats.blocks_skipped),
        "inram_s": round(inram_s, 4),
        "grid_s": round(grid_s, 4),
        "overhead": round(grid_s / inram_s, 2) if inram_s > 0 else float("inf"),
    }


def check_baseline(rows: list[dict], baseline_path: Path) -> list[str]:
    baseline_doc = json.loads(baseline_path.read_text())
    baseline = {r["name"]: r for r in baseline_doc["rows"]}
    errors = []
    for row in rows:
        base = baseline.get(row["name"])
        if base is None:
            continue
        ceiling = base["overhead"] * REGRESSION_RATIO
        if row["overhead"] > ceiling:
            errors.append(
                f"{row['name']}: overhead {row['overhead']}x grew past "
                f"{ceiling:.2f}x (baseline {base['overhead']}x "
                f"* {REGRESSION_RATIO})"
            )
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default=str(Path(__file__).parent / "out" / "BENCH_grid.json")
    )
    parser.add_argument(
        "--baseline",
        default=str(Path(__file__).parent / "BENCH_grid_baseline.json"),
        help="baseline JSON for the overhead gate ('' disables)",
    )
    args = parser.parse_args(argv)

    rows = [
        bench_workload(name, code, scale, degree, partitions)
        for name, code, scale, degree, partitions in WORKLOADS
    ]
    for row in rows:
        print(
            f"{row['name']:>11}: |V|={row['vertices']} |E|={row['edges']} "
            f"budget {row['budget_bytes'] / 1024:.0f} KiB "
            f"(high-water {row['high_water_bytes'] / 1024:.0f} KiB)  "
            f"in-RAM {row['inram_s']:.3f}s  grid {row['grid_s']:.3f}s  "
            f"overhead {row['overhead']:.2f}x  "
            f"reads {row['block_reads']} hits {row['cache_hits']} "
            f"evictions {row['evictions']} skipped {row['blocks_skipped']}"
        )

    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps({"rows": rows}, indent=2) + "\n")
    print(f"wrote {out_path}")

    failures = []
    if args.baseline:
        baseline_path = Path(args.baseline)
        if baseline_path.exists():
            failures.extend(check_baseline(rows, baseline_path))
        else:
            print(f"note: no baseline at {baseline_path}; gate skipped")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("grid oversubscription bench ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
