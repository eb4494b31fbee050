"""Golden ``EdgeMapStats``: every field of every phase, per layout.

The machine cost model turns these counters into the figure tables, so a
refactor of the engine's traversal paths must leave each of them
unchanged.  BFS and PageRank run on a small R-MAT graph under every
layout the engine can traverse — Algorithm 2's own choice (sparse CSR,
backward CSC, dense COO), an all-but-dense threshold that keeps BFS on
the sparse CSR, each forced partitioned layout, and an attached on-disk
grid — and the recorded stats must equal the committed golden file.

Regenerate the golden file (only when a stats change is intended) with
``PYTHONPATH=src python tests/core/test_edge_map_stats_golden.py``.
"""

from __future__ import annotations

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.bfs import bfs
from repro.algorithms.pagerank import pagerank
from repro.core import Engine, EngineOptions
from repro.frontier.density import DensityThresholds
from repro.graph import generators as gen
from repro.layout import GraphStore
from repro.layout.grid import GridStore

GOLDEN = Path(__file__).with_name("data") / "edge_map_stats_golden.json"

#: layout configuration name -> EngineOptions keyword arguments.
CONFIGS = {
    "auto": {},
    "csr": {"thresholds": DensityThresholds(sparse=1.0, medium=math.inf)},
    "csc": {"forced_layout": "csc"},
    "coo": {"forced_layout": "coo"},
    "pcsr": {"forced_layout": "pcsr"},
    "grid": {},
}


def _phase(stats) -> dict:
    row = {}
    for key, value in vars(stats).items():
        if isinstance(value, np.ndarray):
            value = value.tolist()
        elif hasattr(value, "value"):
            value = value.value
        row[key] = value
    return row


def _collect(config: str, grid_dir: str) -> dict[str, list[dict]]:
    edges = gen.rmat(8, 6.0, seed=3)
    store = GraphStore.build(edges, num_partitions=8)
    grid = (
        GridStore.build(edges, grid_dir, num_stripes=4) if config == "grid" else None
    )
    options = EngineOptions(num_threads=4, backend="serial", **CONFIGS[config])
    out = {}
    with Engine(store, options, grid=grid) as engine:
        source = int(np.argmax(store.out_degrees))
        out["BFS"] = [_phase(s) for s in bfs(engine, source).stats.edge_maps]
        out["PR"] = [_phase(s) for s in pagerank(engine).stats.edge_maps]
    return out


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_edge_map_stats_match_golden(config, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert _collect(config, str(tmp_path)) == golden[config]


def test_golden_covers_every_layout():
    golden = json.loads(GOLDEN.read_text())
    layouts = {
        phase["layout"]
        for runs in golden.values()
        for phases in runs.values()
        for phase in phases
    }
    assert layouts == {"csr", "csc", "coo", "pcsr", "grid"}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {
            name: _collect(name, str(Path(tmp) / name)) for name in sorted(CONFIGS)
        }
    # One phase per line keeps the golden file's diffs readable.
    lines = ["{"]
    for c, config in enumerate(sorted(table)):
        lines.append(f" {json.dumps(config)}: {{")
        runs = table[config]
        for a, algorithm in enumerate(sorted(runs)):
            lines.append(f"  {json.dumps(algorithm)}: [")
            phases = [json.dumps(row, sort_keys=True) for row in runs[algorithm]]
            lines.append(",\n".join(f"   {row}" for row in phases))
            lines.append("  ]" + ("," if a < len(runs) - 1 else ""))
        lines.append(" }" + ("," if c < len(table) - 1 else ""))
    lines.append("}")
    GOLDEN.write_text("\n".join(lines) + "\n")
    print(f"wrote {GOLDEN}")
