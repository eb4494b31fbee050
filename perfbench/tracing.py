"""Spans around calls into the program's public functions, for the traced run.

The untraced run installs nothing.  The traced run patches each traced
function where its callers look it up: ``repro.core.engine`` and
``repro.layout.store`` import their helpers by name, so those module
globals are patched, not only the defining modules.  Class methods are
patched on the class.  :meth:`Tracer.remove` restores every original
object, so the program is unchanged after the run.

A span records its name, start, duration, self time (duration minus its
child spans), parent span and the request (query or set-up) it belongs
to.  Spans stay in memory; :func:`write_chrome_trace` writes them out at
the end.  Calls made inside pool worker processes are not recorded.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

_ABSENT = object()


def _frontier_ids(args, kwargs, frontier):
    """(ids handed in, distinct ids kept) of a sparse-built frontier."""
    ids = kwargs.get("sparse")
    if ids is None:
        return None
    return (len(ids), args[0].size)


def _examined(args, kwargs, record):
    return record.examined


def _block_bytes(args, kwargs, block):
    return block.nbytes


def traced_targets():
    """``(owner, attribute, span name, extra)`` of every traced function."""
    import repro.core.engine as engine_mod
    import repro.core.kernels as kernels_mod
    import repro.layout.store as store_mod
    from repro.algorithms.bfs import BFSOp
    from repro.algorithms.pagerank import PageRankOp
    from repro.core.backend import ProcessBackend
    from repro.frontier.frontier import Frontier
    from repro.layout.coo import PartitionedCOO
    from repro.layout.grid import GridStore
    from repro.layout.pcsr import RangedCSC

    return [
        (store_mod, "build_csr", "graph.build_csr", None),
        (store_mod, "partition_by_destination", "partition.by_destination", None),
        (RangedCSC, "build", "layout.csc_build", None),
        (PartitionedCOO, "build", "layout.coo_build", None),
        (GridStore, "build", "layout.grid.build", None),
        (GridStore, "read_block", "layout.grid.read_block", _block_bytes),
        (engine_mod, "classify_frontier", "frontier.classify", None),
        (Frontier, "__init__", "frontier.construct", _frontier_ids),
        (engine_mod.Engine, "edge_map", "core.engine.edge_map", None),
        (engine_mod.Engine, "vertex_map", "core.engine.vertex_map", None),
        (engine_mod, "run_coo_partition", "core.kernels.coo", _examined),
        (engine_mod, "run_csc_partition", "core.kernels.csc", _examined),
        (engine_mod, "run_csr_sparse_partition", "core.kernels.csr_sparse", _examined),
        (engine_mod, "run_pcsr_partition", "core.kernels.pcsr", _examined),
        (engine_mod, "gather_adjacency", "core.gather.adjacency", None),
        (kernels_mod, "gather_adjacency", "core.gather.adjacency", None),
        (ProcessBackend, "run_partitions", "core.backend.run_partitions", None),
        (PageRankOp, "process_edges", "algorithms.process_edges", None),
        (PageRankOp, "cond", "algorithms.cond", None),
        (BFSOp, "process_edges", "algorithms.process_edges", None),
        (BFSOp, "cond", "algorithms.cond", None),
    ]


class Tracer:
    """Records one span per call of each patched function."""

    def __init__(self) -> None:
        #: ``(name, start_ns, dur_ns, self_ns, parent, request, extra)``.
        self.spans: list[tuple] = []
        #: the request new spans belong to (set by the benchmark loop).
        self.request = -1
        self._stack: list[list[int]] = []
        self._patches: list[tuple] = []
        # Forked pool workers inherit the patches; they record nothing.
        self._recording = [True]
        os.register_at_fork(after_in_child=self._recording.clear)

    # -- patching ------------------------------------------------------
    def install(self) -> None:
        """Patch every function :func:`traced_targets` names."""
        for owner, attr, name, extra in traced_targets():
            raw = inspect.getattr_static(owner, attr)
            own = vars(owner).get(attr, _ABSENT)
            if isinstance(raw, (staticmethod, classmethod)):
                patched = type(raw)(self._wrap(raw.__func__, name, extra))
            else:
                patched = self._wrap(raw, name, extra)
            self._patches.append((owner, attr, own))
            setattr(owner, attr, patched)

    def remove(self) -> None:
        """Restore every patched attribute to its original object."""
        while self._patches:
            owner, attr, own = self._patches.pop()
            if own is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    def _open(self):
        """Push a new span; returns its frame ``[index, child_ns]`` and parent."""
        frame = [len(self.spans), 0]
        self.spans.append(None)
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append(frame)
        return frame, parent

    def _close(self, name, frame, parent, t0, t1, info=None) -> None:
        """Pop the span, charge its duration to its parent, record it."""
        dur = t1 - t0
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += dur
        self.spans[frame[0]] = (name, t0, dur, dur - frame[1], parent, self.request, info)

    def _wrap(self, fn, name: str, extra):
        recording, clock = self._recording, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recording:
                return fn(*args, **kwargs)
            frame, parent = self._open()
            result = _ABSENT
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                info = None
                if extra is not None and result is not _ABSENT:
                    info = extra(args, kwargs, result)
                self._close(name, frame, parent, t0, t1, info)

        return traced

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (a query, a set-up)."""
        frame, parent = self._open()
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(name, frame, parent, t0, time.perf_counter_ns())

    # -- aggregation ---------------------------------------------------
    def totals(self, requests) -> dict[str, dict]:
        """Per span name over ``requests``: calls, total, self and extras."""
        wanted = set(requests)
        out: dict[str, dict] = {}
        for name, _t0, dur, self_ns, _parent, request, info in self.spans:
            if request not in wanted:
                continue
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "extra": []})
            row["calls"] += 1
            row["s"] += dur * 1e-9
            row["self_s"] += self_ns * 1e-9
            if info is not None:
                row["extra"].append(info)
        return out


def write_chrome_trace(tracer: Tracer, path: Path, requests) -> None:
    """Write the spans of ``requests`` as a Chrome trace-event JSON file."""
    wanted = set(requests)
    kept = [s for s in tracer.spans if s[5] in wanted]
    base = min((s[1] for s in kept), default=0)
    events = [
        {
            "name": name,
            "ph": "X",
            "ts": (t0 - base) / 1000.0,
            "dur": dur / 1000.0,
            "pid": 0,
            "tid": 0,
            "args": {"request": request, "parent": parent, "self_us": self_ns / 1000.0},
        }
        for name, t0, dur, self_ns, parent, request, _info in kept
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events}))
