"""The measurement loop and the metrics it reports.

One run of a workload is a closed loop with one client: for each of the
workload's rounds, build the layouts (set-up), run one cold query, then
warm queries one at a time until the round's share of the run time is
spent.  Every query's output is compared bit for bit with the run's
first output, which is itself checked against a scipy reference (and,
for the process and grid workloads, against a serial run).

The timed run (``trace=False``) installs no wrapper and reports the
end-to-end metrics.  The traced run reports the per-layer metrics: it
installs :class:`~tracing.Tracer` around every set-up, every cold query
and every other warm query, so traced and untraced warm queries share
builds and host conditions, and their medians give the tracing overhead.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import hostprobe
from tracing import Tracer, write_chrome_trace
from workloads import Deployment, Reference, Workload, same_bits, serial_outputs

MiB = float(1 << 20)
#: warm queries every round runs even when its time share is spent.
MIN_WARM_PER_ROUND = 2
#: the tail percentile is the highest with this many samples beyond it.
TAIL_BEYOND = 10
#: repetitions of the scipy reference whose median is reported.
REFERENCE_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "first_query_s": "s",
    "query_s.p50": "s",
    "query_s.tail": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "graph.build_csr.s": "s",
    "partition.by_destination.s": "s",
    "layout.csc_build.s": "s",
    "layout.coo_build.s": "s",
    "layout.store_mb": "MiB",
    "layout.grid.build.s": "s",
    "layout.grid.read_block.s": "s",
    "layout.grid.read_block.calls": "count",
    "layout.grid.read_mb": "MiB",
    "layout.grid.read_mbps": "MiB/s",
    "layout.grid.cache_hit_ratio": "ratio",
    "layout.grid.resident_mb": "MiB",
    "frontier.classify.s": "s",
    "frontier.classify.calls": "count",
    "frontier.construct.s": "s",
    "frontier.construct.calls": "count",
    "frontier.activations": "count",
    "frontier.distinct_ratio": "ratio",
    "core.engine.edge_map.s": "s",
    "core.engine.edge_map.self_s": "s",
    "core.engine.edge_map.calls": "count",
    "core.engine.vertex_map.s": "s",
    "core.engine.phases.csr": "count",
    "core.engine.phases.csc": "count",
    "core.engine.phases.coo": "count",
    "core.engine.phases.grid": "count",
    "core.kernels.coo.self_s": "s",
    "core.kernels.coo.calls": "count",
    "core.kernels.csc.self_s": "s",
    "core.kernels.csc.calls": "count",
    "core.kernels.csr_sparse.self_s": "s",
    "core.kernels.csr_sparse.calls": "count",
    "core.kernels.examined_edges": "count",
    "core.kernels.edges_per_s": "edges/s",
    "core.gather.adjacency.s": "s",
    "core.gather.adjacency.calls": "count",
    "core.backend.run_partitions.s": "s",
    "core.backend.run_partitions.calls": "count",
    "core.backend.partitions_dispatched": "count",
    "core.backend.shm_mb_mapped": "MiB",
    "core.backend.shm_mb_republished": "MiB",
    "core.backend.fallbacks": "count",
    "core.backend.worker_rss_mb": "MiB",
    "algorithms.process_edges.s": "s",
    "algorithms.process_edges.calls": "count",
    "algorithms.cond.s": "s",
    "algorithms.driver_self_s": "s",
    "reference.scipy_s": "s",
    "reference.gap_x": "x",
    "host.nproc": "count",
    "host.parallel_x": "x",
    "host.sort_s": "s",
    "trace.overhead_x": "x",
    "failed_ratio": "ratio",
}

_KERNELS = ("core.kernels.coo", "core.kernels.csc", "core.kernels.csr_sparse")
_LAYOUTS = ("csr", "csc", "coo", "grid")


@dataclass
class Sample:
    """Everything one measurement loop observed."""

    setup_s: list[float] = field(default_factory=list)
    cold_s: list[float] = field(default_factory=list)
    #: untraced warm queries (all warm queries of an untraced run).
    warm_s: list[float] = field(default_factory=list)
    traced_s: list[float] = field(default_factory=list)
    setup_requests: list[int] = field(default_factory=list)
    cold_requests: list[int] = field(default_factory=list)
    #: requests of the traced warm queries.
    traced_requests: list[int] = field(default_factory=list)
    attempted: int = 0
    #: queries that raised or whose output differs from the first one.
    failed: int = 0
    first: tuple | None = None
    source: int = -1
    store_mb: float = 0.0
    worker_rss_mb: float = 0.0
    shm_mb_mapped: list[float] = field(default_factory=list)
    grid_resident_mb: float = 0.0
    #: counters summed over traced warm queries: phases per layout,
    #: backend partitions and republished bytes, grid cache hits.
    warm_totals: dict = field(default_factory=dict)
    fallbacks: int = 0
    #: a store kept for the serial bit-identity check.
    store: object = None


def _counters(dep: Deployment) -> dict:
    bs = dep.engine.backend_stats
    out = {
        "partitions_dispatched": bs.partitions_dispatched,
        "shm_bytes_republished": bs.shm_bytes_republished,
    }
    if dep.grid is not None:
        out["cache_hits"] = dep.grid.stats.cache_hits
    return out


def _worker_hwm_mb(pids: list[int]) -> float:
    """Summed ``VmHWM`` of the given live processes, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def _self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_loop(
    workload: Workload,
    edges,
    seconds: float,
    workdir: Path,
    *,
    rounds: int,
    tracer: Tracer | None = None,
    query_hook=None,
    keep_store: bool = False,
) -> Sample:
    """Set up ``rounds`` times and query in a closed loop for ``seconds``.

    With a ``tracer``, set-ups, cold queries and odd-numbered warm
    queries run traced.  ``query_hook(outputs)`` (tests only) may replace
    a query's outputs before they are checked.
    """
    s = Sample()
    request = 0

    @contextmanager
    def maybe_traced(on: bool, name: str):
        if not on:
            yield
            return
        tracer.request = request
        tracer.install()
        try:
            with tracer.span(name):
                yield
        finally:
            tracer.remove()

    start = time.perf_counter()
    for k in range(rounds):
        deadline = start + seconds * (k + 1) / rounds
        s.setup_requests.append(request)
        t0 = time.perf_counter()
        with maybe_traced(tracer is not None, "setup"):
            dep = Deployment(workload, edges, workdir / f"grid-{k}")
        s.setup_s.append(time.perf_counter() - t0)
        request += 1
        try:
            s.store_mb = dep.store.storage_bytes() / MiB
            dep.choose_source()
            s.source = dep.source
            q = 0
            while q <= MIN_WARM_PER_ROUND or time.perf_counter() < deadline:
                traced = tracer is not None and (q == 0 or q % 2 == 1)
                before = _counters(dep)
                t0 = time.perf_counter()
                try:
                    with maybe_traced(traced, "query"):
                        outputs, stats = dep.query()
                except Exception as exc:  # a failed query is counted, not fatal
                    print(f"query failed: {exc!r}", file=sys.stderr)
                    outputs, stats = None, None
                dt = time.perf_counter() - t0
                after = _counters(dep)
                if query_hook is not None and outputs is not None:
                    outputs = query_hook(outputs)
                s.attempted += 1
                if outputs is None:
                    s.failed += 1
                elif s.first is None:
                    s.first = outputs
                elif not same_bits(outputs, s.first):
                    s.failed += 1
                if q == 0:
                    s.cold_s.append(dt)
                    s.cold_requests.append(request)
                elif not traced:
                    s.warm_s.append(dt)
                else:
                    s.traced_s.append(dt)
                    s.traced_requests.append(request)
                    totals = s.warm_totals
                    if stats is not None:
                        for layout, count in stats.layout_histogram().items():
                            totals[layout] = totals.get(layout, 0) + count
                    for key, value in after.items():
                        totals[key] = totals.get(key, 0) + value - before[key]
                request += 1
                q += 1
            s.worker_rss_mb = max(s.worker_rss_mb, _worker_hwm_mb(dep.worker_pids()))
            s.shm_mb_mapped.append(dep.engine.backend_stats.shm_bytes_mapped / MiB)
            s.fallbacks += dep.engine.backend_stats.fallbacks
            if dep.grid is not None:
                s.grid_resident_mb = max(
                    s.grid_resident_mb, dep.grid.budget.high_water_bytes / MiB
                )
            if keep_store and k == rounds - 1:
                s.store = dep.store
        finally:
            dep.close()
            del dep
            gc.collect()
    return s


def tail(values: list[float]) -> tuple[float, float]:
    """``(value, percentile)``: the highest percentile with ``TAIL_BEYOND``
    samples beyond it, floored at the median for short samples."""
    n = len(values)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(values), 50.0
    rank = n - TAIL_BEYOND
    return sorted(values)[rank - 1], 100.0 * rank / n


def count_wrong(s: Sample, reference: Reference, serial: tuple | None) -> int:
    """Queries whose output is wrong: the sample's own failures, or every
    query when the first output fails the scipy or serial reference."""
    if s.first is None:
        return s.attempted
    ok = reference.check(s.first) and (serial is None or same_bits(s.first, serial))
    return s.failed if ok else s.attempted


def end_to_end(s: Sample, peak_rss_mb: float) -> dict[str, float]:
    return {
        "setup_s": statistics.median(s.setup_s),
        "first_query_s": statistics.median(s.cold_s),
        "query_s.p50": statistics.median(s.warm_s),
        "query_s.tail": tail(s.warm_s)[0],
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(
    s: Sample,
    tracer: Tracer,
    *,
    scipy_s: float,
    host: tuple[float, float],
    failed_ratio: float,
) -> dict[str, float]:
    """Per-layer metrics of a traced sample (per warm query unless set-up)."""
    n = len(s.traced_s)
    warm = tracer.totals(s.traced_requests)
    setup = tracer.totals(s.setup_requests)
    builds = len(s.setup_s)

    def get(name, key="self_s"):
        row = warm.get(name)
        return row[key] / n if row else 0.0

    def built(name):
        row = setup.get(name)
        return row["s"] / builds if row else 0.0

    def extras(name):
        row = warm.get(name)
        return row["extra"] if row else []

    m: dict[str, float] = {
        "graph.build_csr.s": built("graph.build_csr"),
        "partition.by_destination.s": built("partition.by_destination"),
        "layout.csc_build.s": built("layout.csc_build"),
        "layout.coo_build.s": built("layout.coo_build"),
        "layout.store_mb": s.store_mb,
        "layout.grid.build.s": built("layout.grid.build"),
        "layout.grid.resident_mb": s.grid_resident_mb,
    }
    for name in ("layout.grid.read_block", "frontier.classify", "frontier.construct",
                 "core.gather.adjacency", "core.backend.run_partitions",
                 "algorithms.process_edges"):
        m[f"{name}.s"] = get(name)
        m[f"{name}.calls"] = get(name, "calls")
    m["core.engine.edge_map.s"] = get("core.engine.edge_map", "s")
    m["core.engine.edge_map.self_s"] = get("core.engine.edge_map")
    m["core.engine.edge_map.calls"] = get("core.engine.edge_map", "calls")
    m["core.engine.vertex_map.s"] = get("core.engine.vertex_map", "s")
    m["algorithms.cond.s"] = get("algorithms.cond")

    read_bytes = sum(extras("layout.grid.read_block"))
    m["layout.grid.read_mb"] = read_bytes / MiB / n
    m["layout.grid.read_mbps"] = (
        m["layout.grid.read_mb"] / m["layout.grid.read_block.s"]
        if m["layout.grid.read_block.s"] else 0.0
    )
    reads = m["layout.grid.read_block.calls"] * n
    m["layout.grid.cache_hit_ratio"] = (
        s.warm_totals.get("cache_hits", 0) / reads if reads else 0.0
    )

    handed = sum(h for h, _ in extras("frontier.construct"))
    distinct = sum(d for _, d in extras("frontier.construct"))
    m["frontier.activations"] = handed / n
    m["frontier.distinct_ratio"] = distinct / handed if handed else 0.0

    for layout in _LAYOUTS:
        m[f"core.engine.phases.{layout}"] = s.warm_totals.get(layout, 0) / n

    for kernel in _KERNELS:
        m[f"{kernel}.self_s"] = get(kernel)
        m[f"{kernel}.calls"] = get(kernel, "calls")
    # The forced partitioned-CSR kernel has no metrics of its own but its
    # edges count toward the rate.
    kernels = _KERNELS + ("core.kernels.pcsr",)
    examined = sum(sum(extras(k)) for k in kernels) / n
    kernel_s = sum(get(k, "s") for k in kernels)
    m["core.kernels.examined_edges"] = examined
    m["core.kernels.edges_per_s"] = examined / kernel_s if kernel_s else 0.0

    m["core.backend.partitions_dispatched"] = (
        s.warm_totals.get("partitions_dispatched", 0) / n
    )
    m["core.backend.shm_mb_mapped"] = statistics.mean(s.shm_mb_mapped)
    m["core.backend.shm_mb_republished"] = (
        s.warm_totals.get("shm_bytes_republished", 0) / MiB / n
    )
    m["core.backend.fallbacks"] = float(s.fallbacks)
    m["core.backend.worker_rss_mb"] = s.worker_rss_mb

    query_s = get("query", "s")
    m["algorithms.driver_self_s"] = (
        query_s - m["core.engine.edge_map.s"] - m["core.engine.vertex_map.s"]
    )
    untraced_p50 = statistics.median(s.warm_s)
    m["reference.scipy_s"] = scipy_s
    m["reference.gap_x"] = untraced_p50 / scipy_s
    m["host.nproc"] = float(os.cpu_count() or 1)
    m["host.parallel_x"], m["host.sort_s"] = host
    m["trace.overhead_x"] = statistics.median(s.traced_s) / untraced_p50
    m["failed_ratio"] = failed_ratio
    return m


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    outdir: Path,
    *,
    query_hook=None,
) -> dict:
    """Run one workload; return the result object the benchmark prints.

    The result also carries a ``"detail"`` entry (sample counts, the tail
    percentile) that the caller prints apart from the result line.
    """
    workdir = outdir / f".work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    keep = workload.backend != "serial" or bool(workload.grid_stripes)
    tracer = Tracer() if trace else None
    try:
        edges = workload.generate(seed)
        s = run_loop(workload, edges, seconds, workdir, rounds=workload.rounds,
                     tracer=tracer, query_hook=query_hook, keep_store=keep)
        peak_rss_mb = _self_peak_rss_mb() + s.worker_rss_mb
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    reference = Reference(workload, edges, s.source)
    scipy_s = reference.timed(REFERENCE_REPEATS) if trace else 0.0
    serial = serial_outputs(workload, s.store, s.source) if keep else None
    failed = count_wrong(s, reference, serial)
    if trace:
        write_chrome_trace(
            tracer, outdir / f"{workload.name}-seed{seed}.trace.json",
            s.setup_requests[:1] + s.cold_requests[:1] + s.traced_requests[:1],
        )
        metrics = per_layer(
            s, tracer, scipy_s=scipy_s, host=hostprobe.probe(),
            failed_ratio=failed / s.attempted,
        )
        units = PER_LAYER
    else:
        metrics = end_to_end(s, peak_rss_mb)
        units = END_TO_END
    _, pct = tail(s.warm_s)
    detail = (
        f"{workload.name} seed {seed} trace {int(trace)}: {len(s.setup_s)} builds, "
        f"{len(s.cold_s)} cold + {len(s.warm_s)} untraced + {len(s.traced_s)} traced "
        f"warm queries; query_s.tail = p{pct:.1f}; nproc {os.cpu_count()}; "
        f"failed {failed}/{s.attempted}"
    )
    return {
        "correct": failed == 0,
        "attempted": s.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
        "detail": detail,
    }
