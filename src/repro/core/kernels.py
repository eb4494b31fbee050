"""Partition-task kernels shared by every execution backend.

Each function runs *one partition task* of the corresponding partitioned
traversal (backward CSC, streaming COO, partitioned CSR) over plain
numpy arrays and returns its
:class:`~repro.resilience.journal.PartitionRecord`; the unpartitioned
sparse forward-CSR traversal returns one record for the whole range, so
the engine folds every layout's records the same way.  They are the
single source of truth for the partition-task computation: the engine's
serial path calls the partitioned ones inline (under the
journal/watchdog supervision of ``Engine._run_partition``) and the
process backend's workers call the very same functions over shared-memory views of the same arrays — which
is what makes the two backends bit-identical by construction rather
than by testing alone.

``cond_fn`` abstracts the per-batch cond guard: the serial engine passes
its counting ``Engine._cond`` bound method, while workers pass either
the raw ``op.cond`` (trusted, certified partition-pure) or
:func:`~repro.core.ops.validated_cond` (guarded).  The record's
``cond_calls`` field reports how often the guard ran so the parent
process can fold worker-side guard activity into its
``guards_skipped`` / ``guard_invocations`` counters; the serial path
ignores it because its ``cond_fn`` already counted.
"""

from __future__ import annotations

import numpy as np

from .._types import VID_DTYPE
from ..resilience.journal import PartitionRecord
from .gather import gather_adjacency

__all__ = [
    "run_csc_partition",
    "run_coo_partition",
    "run_pcsr_partition",
    "run_csr_sparse_partition",
]


def run_csc_partition(
    op,
    cond_fn,
    index: np.ndarray,
    neighbors: np.ndarray,
    bitmap: np.ndarray,
    partition: int,
    lo: int,
    hi: int,
) -> PartitionRecord:
    """Backward traversal of one destination range of the whole-graph CSC."""
    if lo == hi:
        return PartitionRecord.empty(partition, lo, hi)
    candidates = np.arange(lo, hi, dtype=VID_DTYPE)
    cond = cond_fn(op, candidates)
    if cond is not None:
        candidates = candidates[cond]
    dst, src = gather_adjacency(index, neighbors, candidates)
    examined = int(src.size)
    live = bitmap[src]
    src_live, dst_live = src[live], dst[live]
    acts = op.process_edges(src_live, dst_live)
    return PartitionRecord(
        partition=partition,
        lo=lo,
        hi=hi,
        activated=acts,
        examined=examined,
        touched=int(np.unique(dst_live).size),
        active_edges=int(src_live.size),
        scanned=hi - lo,
        cond_calls=1,
    )


def run_csr_sparse_partition(
    op,
    cond_fn,
    src: np.ndarray,
    dst: np.ndarray,
    num_vertices: int,
    scanned: int,
) -> PartitionRecord:
    """The sparse forward-CSR traversal over the whole destination range.

    ``src``/``dst`` are the edges already gathered from the frontier's
    out-adjacency; ``scanned`` is the number of active vertices whose
    slices were gathered.  The phase is unpartitioned, so the record
    covers ``[0, num_vertices)`` and carries no ``touched`` count (no
    sparse statistic reads it).
    """
    examined = int(dst.size)
    cond = cond_fn(op, dst)
    if cond is not None:
        src, dst = src[cond], dst[cond]
    acts = op.process_edges(src, dst)
    return PartitionRecord(
        partition=0,
        lo=0,
        hi=num_vertices,
        activated=acts,
        examined=examined,
        active_edges=int(dst.size),
        scanned=scanned,
        cond_calls=1,
    )


def run_coo_partition(
    op,
    cond_fn,
    src: np.ndarray,
    dst: np.ndarray,
    bitmap: np.ndarray,
    partition: int,
    lo: int,
    hi: int,
) -> PartitionRecord:
    """Streaming traversal of one partition's destination-sorted edge slice."""
    examined = int(src.size)
    live = bitmap[src]
    cond = cond_fn(op, dst)
    if cond is not None:
        live = live & cond
    src_live, dst_live = src[live], dst[live]
    acts = op.process_edges(src_live, dst_live)
    return PartitionRecord(
        partition=partition,
        lo=lo,
        hi=hi,
        activated=acts,
        examined=examined,
        touched=int(np.unique(dst_live).size),
        active_edges=int(src_live.size),
        cond_calls=1,
    )


def run_pcsr_partition(
    op,
    cond_fn,
    index: np.ndarray,
    neighbors: np.ndarray,
    vertex_ids: np.ndarray,
    num_stored: int,
    bitmap: np.ndarray,
    active_ids: np.ndarray,
    partition: int,
    lo: int,
    hi: int,
) -> PartitionRecord:
    """Forward traversal of one pruned per-partition CSR (Figure 5 layout)."""
    if active_ids.size * 8 < num_stored:
        # Sparse frontier: binary-search each active vertex in this
        # partition's stored slots instead of scanning them all.
        pos = np.searchsorted(vertex_ids, active_ids)
        valid = pos < vertex_ids.size
        hits = vertex_ids[pos[valid]] == active_ids[valid]
        live_slots = pos[valid][hits]
        scanned = int(active_ids.size)
    else:
        # Dense frontier: every stored (replicated) vertex is visited to
        # test activity — the §II.F work inflation.
        live_slots = np.flatnonzero(bitmap[vertex_ids])
        scanned = num_stored
    if live_slots.size == 0:
        rec = PartitionRecord.empty(partition, lo, hi)
        rec.scanned = scanned
        return rec
    slot_keys, dst = gather_adjacency(index, neighbors, live_slots)
    src = vertex_ids[slot_keys]
    examined = int(dst.size)
    cond = cond_fn(op, dst)
    if cond is not None:
        src, dst = src[cond], dst[cond]
    acts = op.process_edges(src, dst)
    return PartitionRecord(
        partition=partition,
        lo=lo,
        hi=hi,
        activated=acts,
        examined=examined,
        touched=int(np.unique(dst).size),
        active_edges=int(src.size),
        scanned=scanned,
        cond_calls=1,
    )
