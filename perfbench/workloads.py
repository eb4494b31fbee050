"""The benchmark's workloads: input generation, set-up, one query, output checks.

A user of the engine builds the layouts of a graph once (set-up), then
runs analytics queries on it; a query is one algorithm run.  Each
:class:`Workload` fixes the graph generator and its parameters, the
algorithm, the partition count and the execution path (serial, process
pool, or on-disk grid).  The seed feeds only the generator.

Outputs are checked against references computed independently with
``scipy`` (outside the timed region); the process and grid workloads are
also checked bit for bit against a serial run on the same graph.
"""

from __future__ import annotations

import dataclasses
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import shortest_path

from procs import wait_ended
from repro.algorithms.bfs import bfs
from repro.algorithms.pagerank import pagerank
from repro.algorithms.registry import default_source
from repro.core import Engine, EngineOptions
from repro.graph.edgelist import EdgeList
from repro.graph.generators import rmat, road_grid
from repro.layout.grid import GridStore
from repro.layout.store import GraphStore

#: PageRank iterations and damping of every PageRank workload.
PR_ITERATIONS = 10
PR_DAMPING = 0.85
#: largest |difference| allowed between engine and scipy PageRank.
PR_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload."""

    name: str
    #: one line: why the workload is in the benchmark.
    why: str
    #: ``"rmat"`` (``size`` = scale) or ``"road"`` (``size`` = side).
    graph: str
    size: int
    #: ``"pagerank"`` or ``"bfs"``.
    algorithm: str
    edge_factor: int = 16
    partitions: int = 384
    backend: str = "serial"
    #: stripes per side of an on-disk grid to stream from; 0 keeps the
    #: graph in RAM.  The grid's memory budget is half its bytes.
    grid_stripes: int = 0
    #: layout builds per run; warm queries are spread over all of them
    #: so a run's sample spans the placement variance between builds,
    #: and ``first_query_s`` is the median of this many cold queries.
    rounds: int = 4

    def generate(self, seed: int) -> EdgeList:
        """The workload's input graph for ``seed``."""
        if self.graph == "rmat":
            return rmat(self.size, self.edge_factor, seed=seed)
        if self.graph == "road":
            return road_grid(self.size, seed=seed)
        raise ValueError(f"unknown graph generator {self.graph!r}")


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="social-pr",
            why="PageRank x10 on R-MAT scale 16 (ef 16, P=384, serial): every phase "
            "streams dense COO; kernel, dedup and frontier work on large arrays",
            graph="rmat", size=16, algorithm="pagerank",
        ),
        Workload(
            name="road-bfs",
            why="BFS from default_source on road_grid(600) (P=384, serial): ~875 "
            "sparse-CSR phases of tiny frontiers; per-phase fixed overhead dominates",
            graph="road", size=600, algorithm="bfs", rounds=16,
        ),
        Workload(
            name="social-pr-process",
            why="social-pr on backend process:workers=2; the only workload that "
            "publishes, attaches and merges shared memory",
            graph="rmat", size=16, algorithm="pagerank",
            backend="process:workers=2", rounds=6,
        ),
        Workload(
            name="social-pr-grid",
            why="social-pr streamed from a 16x16 on-disk grid under a budget of half "
            "its bytes; the only workload with block reads, CRC checks, LRU eviction",
            graph="rmat", size=16, algorithm="pagerank",
            grid_stripes=16, rounds=3,
        ),
    )
}


def scaled(workload: Workload, size: int, partitions: int) -> Workload:
    """A small copy of ``workload`` (the benchmark's own tests use it)."""
    stripes = min(workload.grid_stripes, 4)
    return dataclasses.replace(
        workload, size=size, partitions=partitions, grid_stripes=stripes
    )


# ----------------------------------------------------------------------
# set-up and queries
# ----------------------------------------------------------------------
class Deployment:
    """The layouts and engine a user builds once before querying."""

    def __init__(self, workload: Workload, edges: EdgeList, grid_dir: Path) -> None:
        self.workload = workload
        self.grid_dir = grid_dir
        self.store = GraphStore.build(edges, num_partitions=workload.partitions)
        self.grid = None
        if workload.grid_stripes:
            built = GridStore.build(edges, grid_dir, num_stripes=workload.grid_stripes)
            self.grid = GridStore.open(grid_dir, budget=built.total_bytes() // 2)
        self.engine = Engine(
            self.store, EngineOptions(backend=workload.backend), grid=self.grid
        )
        self.source = -1

    def choose_source(self) -> None:
        """Pick the BFS root (not part of set-up or of a query)."""
        if self.workload.algorithm == "bfs":
            self.source = default_source(self.engine)

    def query(self):
        """One algorithm run: ``(outputs, RunStats)``."""
        return run_algorithm(self.workload.algorithm, self.engine, self.source)

    def worker_pids(self) -> list[int]:
        """PIDs of the engine's live pool workers (empty unless a pool runs).

        The engine builds its backend lazily and has no public accessor
        for it; reading the attribute does not create one.
        """
        backend = self.engine._backend_obj
        return backend.worker_pids() if hasattr(backend, "worker_pids") else []

    def close(self) -> None:
        """Close the engine and wait for its pool workers to exit, so
        they do not run on into the next round's set-up."""
        workers = self.worker_pids()
        self.engine.close()
        wait_ended(workers)
        shutil.rmtree(self.grid_dir, ignore_errors=True)


def run_algorithm(algorithm: str, engine: Engine, source: int):
    """Run ``algorithm`` on ``engine``; return its output arrays and stats."""
    if algorithm == "pagerank":
        res = pagerank(engine, iterations=PR_ITERATIONS, damping=PR_DAMPING)
        return (res.ranks,), res.stats
    if algorithm == "bfs":
        res = bfs(engine, source)
        return (res.parent, res.level), res.stats
    raise ValueError(f"unknown algorithm {algorithm!r}")


def serial_outputs(workload: Workload, store: GraphStore, source: int):
    """The outputs of a serial in-RAM run on ``store`` (bit-identity check)."""
    with Engine(store, EngineOptions(backend="serial")) as engine:
        return run_algorithm(workload.algorithm, engine, source)[0]


def same_bits(a: tuple, b: tuple) -> bool:
    """Whether two output tuples are bit-identical."""
    return len(a) == len(b) and all(
        x.dtype == y.dtype
        and x.shape == y.shape
        and x.tobytes() == y.tobytes()
        for x, y in zip(a, b)
    )


# ----------------------------------------------------------------------
# independent scipy references
# ----------------------------------------------------------------------
class Reference:
    """The scipy computation of a workload's query, and the output check."""

    def __init__(self, workload: Workload, edges: EdgeList, source: int) -> None:
        self.algorithm = workload.algorithm
        self.source = source
        self.n = n = edges.num_vertices
        src = edges.src.astype(np.int64)
        dst = edges.dst.astype(np.int64)
        ones = np.ones(src.size)
        if self.algorithm == "pagerank":
            self.matrix = sp.csr_matrix((ones, (dst, src)), shape=(n, n))
            self.out_deg = np.bincount(src, minlength=n).astype(np.float64)
        else:
            self.matrix = sp.csr_matrix((ones, (src, dst)), shape=(n, n))
            self.edge_keys = np.unique(src * n + dst)
        self.expected = None

    def compute(self):
        """Run the scipy reference once; returns its output."""
        if self.algorithm == "pagerank":
            return self._pagerank()
        dist = shortest_path(
            self.matrix, directed=True, unweighted=True, indices=self.source
        )
        return np.where(np.isinf(dist), -1, dist).astype(np.int64)

    def _pagerank(self) -> np.ndarray:
        n = self.n
        safe = np.where(self.out_deg > 0, self.out_deg, 1.0)
        dangling = self.out_deg == 0
        ranks = np.full(n, 1.0 / n)
        for _ in range(PR_ITERATIONS):
            accum = self.matrix @ (ranks / safe)
            ranks = (1.0 - PR_DAMPING) / n + PR_DAMPING * (
                accum + ranks[dangling].sum() / n
            )
        return ranks

    def timed(self, repeats: int) -> float:
        """Median wall-clock seconds of ``repeats`` reference runs."""
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            self.expected = self.compute()
            times.append(time.perf_counter() - t0)
        return float(np.median(times))

    def check(self, outputs: tuple) -> bool:
        """Whether ``outputs`` agree with the reference."""
        if self.expected is None:
            self.expected = self.compute()
        if self.algorithm == "pagerank":
            (ranks,) = outputs
            return ranks.shape == self.expected.shape and bool(
                np.max(np.abs(ranks - self.expected)) <= PR_TOLERANCE
            )
        parent, level = outputs
        if not np.array_equal(level, self.expected):
            return False
        return self._parents_ok(parent.astype(np.int64), level)

    def _parents_ok(self, parent: np.ndarray, level: np.ndarray) -> bool:
        """Every reached ``v`` has an in-neighbour ``parent[v]`` one level up."""
        if parent[self.source] != self.source:
            return False
        reached = level >= 0
        if np.any(parent[~reached] != -1):
            return False
        v = np.flatnonzero(reached)
        v = v[v != self.source]
        p = parent[v]
        if np.any(p < 0) or np.any(level[p] != level[v] - 1):
            return False
        keys = p * self.n + v
        pos = np.searchsorted(self.edge_keys, keys)
        pos = np.minimum(pos, self.edge_keys.size - 1)
        return bool(np.all(self.edge_keys[pos] == keys))
