"""Tests of the benchmark itself, on tiny graphs.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import hostprobe  # noqa: E402
import measure  # noqa: E402
import procs  # noqa: E402
from tracing import _ABSENT, traced_targets  # noqa: E402
from workloads import WORKLOADS, scaled  # noqa: E402

TINY = {
    "social-pr": (8, 8),
    "road-bfs": (20, 8),
    "social-pr-process": (8, 8),
    "social-pr-grid": (8, 8),
}
SECONDS = 0.2
PROBE = hostprobe.probe


def tiny(name):
    size, partitions = TINY[name]
    return scaled(WORKLOADS[name], size, partitions)


@pytest.fixture(autouse=True)
def fast_probe(monkeypatch):
    monkeypatch.setattr(hostprobe, "probe", lambda: (1.0, 1.0))


def run(name, tmp_path, *, seed=1, trace=False, hook=None):
    return measure.run_workload(
        tiny(name), seed, SECONDS, trace, tmp_path, query_hook=hook
    )


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == measure.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == measure.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    result = run(name, tmp_path, trace=trace)
    expected = measure.PER_LAYER if trace else measure.END_TO_END
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_measures_the_layers_it_exercises(tmp_path):
    m = run("social-pr-grid", tmp_path, trace=True)["metrics"]
    for name in ("layout.grid.read_block.calls", "core.kernels.coo.calls",
                 "algorithms.process_edges.calls", "frontier.construct.calls",
                 "core.engine.phases.grid", "layout.grid.build.s"):
        assert m[name]["value"] > 0, name
    assert m["core.backend.run_partitions.calls"]["value"] == 0
    assert (tmp_path / "social-pr-grid-seed1.trace.json").is_file()


@pytest.mark.parametrize("name", ["social-pr", "road-bfs"])
def test_a_perturbed_warm_output_counts_as_failed(name, tmp_path):
    calls = []

    def perturb_second(outputs):
        calls.append(1)
        if len(calls) != 2:
            return outputs
        first = outputs[0].copy()
        first[1] += 1
        return (first,) + tuple(outputs[1:])

    result = run(name, tmp_path, hook=perturb_second)
    assert result["failed"] == 1
    assert not result["correct"]


def test_a_perturbed_first_output_fails_every_query(tmp_path):
    def perturb(outputs):
        ranks = outputs[0].copy()
        ranks[0] += 1e-9
        return (ranks,)

    result = run("social-pr", tmp_path, hook=perturb)
    assert result["failed"] == result["attempted"]


def test_wrappers_are_removed_after_the_traced_run(tmp_path):
    before = [(o, a, vars(o).get(a, _ABSENT)) for o, a, _, _ in traced_targets()]
    run("road-bfs", tmp_path, trace=True)
    for owner, attr, original in before:
        assert vars(owner).get(attr, _ABSENT) is original, (owner, attr)


def test_no_process_outlives_a_run(tmp_path):
    run("social-pr-process", tmp_path, trace=True)
    assert procs.children(), "the pool and its resource tracker started"
    procs.stop_all()
    assert procs.children() == []


def test_seed_changes_the_graph_but_no_metric_name(tmp_path):
    w = tiny("road-bfs")
    a, b = w.generate(1), w.generate(2)
    assert not (np.array_equal(a.src, b.src) and np.array_equal(a.dst, b.dst))
    names = [set(run("road-bfs", tmp_path, seed=s)["metrics"]) for s in (1, 2)]
    assert names[0] == names[1]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = [float(v) for v in range(1, 41)]
    assert measure.tail(values) == (30.0, 75.0)
    assert measure.tail(values[:12])[1] == 50.0


def test_host_probe_reports_positive_readings():
    parallel_x, alone_s = PROBE(trials=1, elements=1 << 12)
    assert parallel_x > 0 and alone_s > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".work-*"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "social-pr",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
