"""The GraphGrind-v2 execution engine (paper §III).

:class:`Engine` implements the Ligra-compatible ``edge_map`` /
``vertex_map`` interface on top of the three-copy
:class:`~repro.layout.store.GraphStore`.  Each ``edge_map`` runs the
paper's Algorithm 2: classify the frontier as sparse / medium-dense /
dense and dispatch to the matching traversal kernel —

* sparse       → forward traversal of the unpartitioned CSR,
* medium-dense → backward traversal of the whole-graph CSC, split into
  the partition computation ranges,
* dense        → streaming traversal of the destination-partitioned COO.

The forward-vs-backward choice therefore folds into the density decision
and is never specified by the algorithm programmer.

Every layout feeds one pipeline: it only produces its phase's partition
records (:class:`~repro.resilience.journal.PartitionRecord`), and one
fold turns them into the next frontier and one
:class:`~repro.core.stats.EdgeMapStats`, which the machine model
converts into simulated execution time.

When constructed with a :class:`~repro.resilience.ResiliencePolicy` the
engine additionally *supervises* every ``edge_map``: injected or real
:class:`~repro.errors.WorkerFailure`/:class:`~repro.errors.CapacityError`
faults are recovered at the finest granularity the fault allows.
Partition-task faults are confined by the phase journal
(:class:`~repro.resilience.journal.PhaseJournal`): each partition task's
write set is rolled back individually and the retry *replays* already
committed partitions from their journal records, re-executing only the
failed partition — the paper's disjoint-destination-range property is
what makes that bit-identical.  Whole-phase faults roll the operator
back to its pre-phase snapshot and re-execute the phase (capped
exponential backoff), and repeated capacity faults walk the degradation
ladder — halving the partition count and re-deriving the layouts —
instead of dying.  An optional watchdog turns (simulated) partition
stalls into the same ladder: retry → requeue on another scheduler slot →
degrade.

The partitioned kernels hand each phase's partition tasks to a
pluggable :class:`~repro.core.backend.ExecutionBackend`
(``options.backend``): ``"serial"`` runs the tasks through the
supervised inline loop exactly as before, while ``"process"`` executes
them concurrently on a persistent shared-memory worker pool — admitted
only for operators certified partition-pure, and bit-identical to
serial because both paths run the same kernel functions
(:mod:`repro.core.kernels`) over the same disjoint destination ranges.
A backend failure (dead pool, shm exhaustion) falls back to the serial
path and is logged in ``resilience_log``.
"""

from __future__ import annotations

import dataclasses
import logging
import shutil
import tempfile
import weakref
import zlib
from typing import NamedTuple

import numpy as np

from .._types import VID_DTYPE
from ..errors import (
    BackendError,
    CapacityError,
    RetryExhausted,
    StallTimeout,
    ValidationError,
    WorkerFailure,
)
from ..frontier.density import DensityClass, classify_frontier
from ..frontier.frontier import Frontier
from ..layout.pcsr import PartitionedCSR
from ..layout.store import GraphStore
from ..resilience.journal import PartitionRecord, PhaseJournal
from .backend import (
    BatchRequest,
    ExecutionBackend,
    PartitionTask,
    SerialBackend,
    backend_options,
    make_backend,
)
from .gather import gather_adjacency
from .kernels import (
    run_coo_partition,
    run_csc_partition,
    run_csr_sparse_partition,
    run_pcsr_partition,
)
from .ops import EdgeOperator, snapshot_blind_spots, validated_cond
from .options import EngineOptions
from .stats import BackendStats, EdgeMapStats, RunStats, VertexMapStats

__all__ = ["Engine"]

log = logging.getLogger(__name__)


class _Traversal(NamedTuple):
    """What a layout adds to its phase's :class:`EdgeMapStats` beyond
    the facts folded from its partition records."""

    layout: str
    direction: str
    uses_atomics: bool
    #: partition count of a partitioned traversal; ``None`` for the
    #: unpartitioned sparse CSR, whose stats carry no per-partition arrays.
    partitions: int | None
    #: grid I/O counters (0 for the in-memory layouts).
    io_bytes: int = 0
    io_blocks: int = 0


class Engine:
    """Frontier-based graph processing over a :class:`GraphStore`."""

    def __init__(
        self,
        store: GraphStore,
        options: EngineOptions | None = None,
        *,
        resilience=None,
        journal: PhaseJournal | None = None,
        grid=None,
    ) -> None:
        self.store = store
        self.options = options or EngineOptions()
        self.stats = RunStats()
        self._pcsr: PartitionedCSR | None = None
        #: optional :class:`~repro.resilience.ResiliencePolicy`.
        self.resilience = resilience
        #: optional :class:`~repro.layout.grid.GridStore`; when set, every
        #: edge-map streams the on-disk grid under its memory budget
        #: instead of traversing the in-RAM layouts.  Attached either
        #: explicitly (out-of-core from the start) or by the degradation
        #: ladder's spill rung.
        self.grid = grid
        self._spill_finalizer = None
        #: phase journal enabling partition-granular recovery; created
        #: automatically for supervised engines, ``None`` otherwise.
        self.journal = journal
        if self.journal is None and resilience is not None:
            self.journal = PhaseJournal()
        plan = getattr(resilience, "fault_plan", None)
        if plan is not None:
            # Reject misspelled kinds / out-of-range partitions up front:
            # a fault that can never fire silently voids the experiment.
            plan.validate(num_partitions=store.num_partitions)
        #: global edge-map counter, the key fault plans address phases by.
        self._edge_map_index = 0
        #: human-readable recovery/degradation history of this engine.
        self.resilience_log: list[str] = []
        #: how many per-batch ``validated_cond`` guards actually ran vs.
        #: were skipped because the operator is certified partition-pure.
        self.guard_invocations = 0
        self.guards_skipped = 0
        # -- execution backend -----------------------------------------
        # The spec is validated by EngineOptions; resolve its kind and
        # typed options once.  The backend object itself (and for
        # "process" its worker pool) is built lazily on the first
        # partitioned dispatch, so engines that never leave the sparse
        # CSR path never fork.
        self._backend_kind, self._backend_conf = backend_options(self.options.backend)
        #: cumulative backend counters (engine lifetime; snapshots are
        #: attached to each detached :class:`RunStats`).
        self.backend_stats = BackendStats(
            spec=self.options.backend, kind=self._backend_kind
        )
        self._backend_obj: ExecutionBackend | None = None
        self._serial_backend = SerialBackend()
        self._backend_finalizer = None
        #: whether the current edge-map phase may run concurrently
        #: (certified operator + non-serial backend); set at admission.
        self._phase_concurrent = False
        self._uncertified_noted: set[type] = set()

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """|V| of the processed graph."""
        return self.store.num_vertices

    @property
    def num_edges(self) -> int:
        """|E| of the processed graph."""
        return self.store.num_edges

    def reset_stats(self) -> RunStats:
        """Detach and return accumulated statistics, starting a fresh record."""
        out = self.stats
        out.backend = dataclasses.replace(self.backend_stats)
        self.stats = RunStats()
        return out

    # ------------------------------------------------------------------
    # execution backend lifecycle
    # ------------------------------------------------------------------
    def _execution_backend(self) -> ExecutionBackend:
        if self._backend_obj is None:
            self._backend_obj = make_backend(
                self.options.backend, stats=self.backend_stats
            )
            # Engines are created freely throughout the test suite and
            # the bench harness; tie the pool's lifetime to the engine's
            # so forgotten engines cannot strand worker processes.
            self._backend_finalizer = weakref.finalize(
                self, self._backend_obj.close
            )
        return self._backend_obj

    def close(self) -> None:
        """Shut down the execution backend (worker pool, shm segments),
        when one exists."""
        if self._backend_finalizer is not None:
            self._backend_finalizer.detach()
            self._backend_finalizer = None
        if self._backend_obj is not None:
            self._backend_obj.close()
            self._backend_obj = None

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _note_backend_fallback(self, exc: BackendError) -> None:
        """Demote a failed concurrent backend to the serial path.

        Workers only ever write shared-memory *copies* of the operator
        state, so the in-process arrays are untouched and the serial
        re-run of the batch is bit-identical to a healthy concurrent
        one — a dead pool degrades instead of failing, exactly like the
        resilience ladder's other recoveries.
        """
        self.backend_stats.fallbacks += 1
        self.backend_stats.kind = "serial"
        message = f"backend {self.options.backend!r} failed ({exc}); falling back to serial"
        self.resilience_log.append(message)
        log.warning("%s", message)
        if self._backend_finalizer is not None:
            self._backend_finalizer.detach()
            self._backend_finalizer = None
        if self._backend_obj is not None:
            try:
                self._backend_obj.close()
            except Exception:  # pragma: no cover - best-effort teardown
                pass
        self._backend_obj = self._serial_backend
        self._backend_kind = "serial"
        self._phase_concurrent = False

    # ------------------------------------------------------------------
    # safety certificates: static proof replaces runtime guards
    # ------------------------------------------------------------------
    def _op_trusted(self, op: EdgeOperator) -> bool:
        """Whether ``op``'s class is certified partition-pure (and the
        options allow trusting that).  Cached per class by the analysis
        layer; analysis failures degrade to the guarded path."""
        if not self.options.trust_certificates:
            return False
        from ..analysis.certificate import operator_is_partition_pure

        return operator_is_partition_pure(op)

    def _cond(self, op: EdgeOperator, dst_ids: np.ndarray) -> np.ndarray | None:
        """The per-batch cond guard, elided for certified operators.

        For a *partition-pure* certified class the effect pass has proven
        ``cond`` returns ``None`` or a boolean mask parallel to its
        argument, so the dynamic dtype/shape validation is pure overhead;
        the result is bit-identical either way."""
        if self._op_trusted(op):
            self.guards_skipped += 1
            return op.cond(dst_ids)
        self.guard_invocations += 1
        return validated_cond(op, dst_ids)

    def _require_parallel_certified(self, op: EdgeOperator) -> None:
        """Admission control for concurrent backends: certified or refused."""
        from ..analysis.certificate import operator_report
        from ..analysis.effects import SafetyLevel

        report = operator_report(type(op))
        if report.safety is SafetyLevel.PARTITION_PURE:
            return
        detail = f"; {report.reasons[0]}" if report.reasons else ""
        raise ValidationError(
            f"backend {self.options.backend!r} requested but {type(op).__name__} "
            f"is not certified partition-pure (certified level: {report.level})"
            f"{detail} — run `python -m repro certify` for the full report, or "
            f"use a ':strict=0' backend spec to run uncertified operators "
            f"on the serial path"
        )

    def _admit_backend(self, op: EdgeOperator) -> None:
        """Decide whether this phase may run on the concurrent backend.

        Strict (default) non-serial backends *refuse* uncertified
        operators; ``strict=0`` quietly keeps them on the serial path
        (logged once per class) so whole test/CI matrices can run under
        ``REPRO_BACKEND=process:...`` without certifying every ad-hoc
        operator.
        """
        self._phase_concurrent = False
        if self._backend_kind == "serial":
            return
        if self._backend_conf.get("strict", True):
            self._require_parallel_certified(op)
            self._phase_concurrent = True
            return
        from ..analysis.certificate import operator_is_partition_pure

        if operator_is_partition_pure(op):
            self._phase_concurrent = True
        elif type(op) not in self._uncertified_noted:
            self._uncertified_noted.add(type(op))
            self.resilience_log.append(
                f"backend {self.options.backend!r}: {type(op).__name__} is not "
                "certified partition-pure; running it on the serial path"
            )
            log.info(
                "backend %r: %s not certified; running serially",
                self.options.backend, type(op).__name__,
            )

    # ------------------------------------------------------------------
    # edge map
    # ------------------------------------------------------------------
    def edge_map(self, frontier: Frontier, op: EdgeOperator) -> Frontier:
        """Apply ``op`` over the out-edges of ``frontier``'s vertices.

        Returns the next frontier: the distinct vertices ``op`` activated.
        """
        if frontier.num_vertices != self.num_vertices:
            raise ValueError("frontier size does not match the graph")
        self._admit_backend(op)
        if frontier.is_empty:
            return Frontier.empty(self.num_vertices)
        if self.resilience is None:
            result = self._edge_map_dispatch(frontier, op)
            self._edge_map_index += 1
            return result
        return self._edge_map_supervised(frontier, op)

    def attach_grid(self, grid) -> None:
        """Switch this engine to out-of-core grid execution.

        All subsequent edge-maps stream ``grid``'s blocks under its
        memory budget instead of traversing the in-RAM layouts.
        """
        self.grid = grid
        self.resilience_log.append(
            f"grid execution attached: {grid.num_stripes}x{grid.num_stripes} "
            f"blocks, {grid.total_bytes()} B on disk, budget "
            f"{grid.budget.limit_bytes or 'unlimited'}"
        )

    def _edge_map_dispatch(self, frontier: Frontier, op: EdgeOperator) -> Frontier:
        """One un-supervised edge-map attempt: the single edge-map pipeline.

        Algorithm 2 picks the layout; the layout only produces its
        :class:`PartitionRecord`s (plus the few stats facts that are its
        own); then one fold turns every layout's records into the next
        frontier and the phase's :class:`EdgeMapStats`.
        """
        density = classify_frontier(
            frontier, self.store.out_degrees, self.num_edges, self.options.thresholds
        )
        if self.grid is not None:
            layout = "grid"
        else:
            layout = self.options.forced_layout or {
                DensityClass.SPARSE: self.options.sparse_layout,
                DensityClass.MEDIUM: "csc",
                DensityClass.DENSE: "coo",
            }[density]
        if layout == "csr":
            traversal, records = self._sparse_csr(frontier, op)
        elif layout == "csc":
            traversal, records = self._backward_csc(frontier, op)
        elif layout == "coo":
            traversal, records = self._partitioned_coo(frontier, op)
        elif layout == "pcsr":
            traversal, records = self._partitioned_csr(frontier, op)
        else:
            traversal, records = self._grid_stripes(frontier, op)

        # -- fold: the same for every layout ---------------------------
        p = traversal.partitions
        part_examined = part_touched = None
        if p is not None:
            part_examined = np.zeros(p, dtype=np.int64)
            part_touched = np.zeros(p, dtype=np.int64)
        examined = active_edges = scanned = 0
        activated: list[np.ndarray] = []
        for rec in records:
            examined += rec.examined
            active_edges += rec.active_edges
            scanned += rec.scanned
            if p is not None:
                # += because a grid stripe yields one record per block.
                part_examined[rec.partition] += rec.examined
                part_touched[rec.partition] += rec.touched
            if len(rec.activated):
                activated.append(rec.activated)
        if len(activated) == 1:
            # The sparse CSR's single record: no concatenation copy.
            ids = activated[0]
        elif activated:
            ids = np.concatenate(activated)
        else:
            ids = np.empty(0, VID_DTYPE)
        nxt = Frontier(self.num_vertices, sparse=ids)
        self.stats.edge_maps.append(
            EdgeMapStats(
                layout=traversal.layout,
                direction=traversal.direction,
                density=density,
                frontier_size=frontier.size,
                active_edges=active_edges,
                examined_edges=examined,
                scanned_vertices=scanned,
                updated_vertices=nxt.size,
                uses_atomics=traversal.uses_atomics,
                num_partitions=1 if p is None else p,
                partition_examined=part_examined,
                partition_touched_vertices=part_touched,
                io_bytes=traversal.io_bytes,
                io_blocks=traversal.io_blocks,
            )
        )
        return nxt

    # ------------------------------------------------------------------
    # supervised execution (resilience)
    # ------------------------------------------------------------------
    @property
    def _fault_plan(self):
        return self.resilience.fault_plan if self.resilience is not None else None

    def _before_partition(self, partition: int) -> None:
        """Fault-injection hook called at the start of each partition task."""
        plan = self._fault_plan
        if plan is not None:
            plan.before_partition(self._edge_map_index, partition)

    def _edge_map_supervised(self, frontier: Frontier, op: EdgeOperator) -> Frontier:
        """Run one edge-map phase under the retry/degradation supervisor.

        Recovery granularity depends on what the journal knows: when a
        partition task fails after others already committed, the commits
        stay in place (their records are replayed on the retry) and only
        the failed partition re-executes.  Capacity faults and faults
        before any partition committed roll ``op`` and the phase
        statistics all the way back to the pre-phase snapshot.  Either
        way the recovered phase is bit-identical to a fault-free one.
        """
        policy = self.resilience
        # A partition-pure certificate statically rules out snapshot blind
        # spots (mutable non-array state demotes the level), so the
        # dynamic check is only needed for uncertified operators.
        blind = [] if self._op_trusted(op) else snapshot_blind_spots(op)
        if blind:
            raise ValidationError(
                f"{type(op).__name__} holds mutable non-array state "
                f"({', '.join(sorted(blind))}) and does not override "
                "snapshot()/restore(); supervised rollback would silently "
                "miss it — override both hooks to cover that state"
            )
        journal = self.journal
        if journal is not None:
            journal.begin_phase(self._edge_map_index)
        snapshot = op.snapshot()
        stats_mark = len(self.stats.edge_maps)
        attempt = 0
        while True:
            try:
                plan = self._fault_plan
                if plan is not None:
                    plan.before_edge_map(self._edge_map_index)
                self._assert_budget()
                result = self._edge_map_dispatch(frontier, op)
                self._edge_map_index += 1
                return result
            except (WorkerFailure, CapacityError) as exc:
                # Partition-granular path: the failed task's write set was
                # already rolled back inside _run_partition, and committed
                # partitions replay from the journal — keep their writes.
                granular = (
                    not isinstance(exc, CapacityError)
                    and journal is not None
                    and journal.has_commits()
                )
                if not granular:
                    op.restore(snapshot)
                    if journal is not None:
                        journal.invalidate()
                del self.stats.edge_maps[stats_mark:]
                detail = (
                    f"; keeping {journal.num_commits()} committed partition(s)"
                    if granular
                    else ""
                )
                self.resilience_log.append(
                    f"edge-map {self._edge_map_index} attempt {attempt} "
                    f"faulted: {exc}{detail}"
                )
                log.warning("edge-map %d faulted: %s", self._edge_map_index, exc)
                if isinstance(exc, CapacityError):
                    self._handle_capacity(exc)
                if attempt >= policy.max_retries:
                    raise RetryExhausted(
                        f"edge-map {self._edge_map_index} failed after "
                        f"{attempt + 1} attempt(s): {exc}"
                    ) from exc
                policy.wait(attempt)
                attempt += 1

    def _assert_budget(self) -> None:
        """Degrade to the grid when the in-RAM three-copy layout exceeds
        the policy's memory budget.

        This is how an over-budget run reaches the spill rung *before*
        any real allocation fails.  The proactive check is not a fault,
        so it spills directly rather than raising through the retry
        machinery — a hard-kill policy (``max_retries=0``) still gets
        its grid.  A no-op once the grid is attached (the grid's own
        governor enforces the budget from then on) or when the layout
        fits.
        """
        policy = self.resilience
        budget = getattr(policy, "memory_budget", None) if policy else None
        if budget is None or self.grid is not None:
            return
        from ..partition.storage import StorageModel

        model = StorageModel(self.num_vertices, self.num_edges)
        try:
            model.assert_fits(
                model.graphgrind_v2_bytes(), budget, what="three-copy layout"
            )
        except CapacityError as exc:
            self._degrade_to_grid(exc)

    def _handle_capacity(self, exc: CapacityError) -> None:
        """Walk the capacity degradation ladder: halve, then spill.

        Partition-halving shrinks bookkeeping/replication but not the
        p-independent three-copy layout itself, so when the error's
        structured byte accounting proves the deficit is beyond halving
        (required bytes exceed the whole budget) the ladder jumps
        straight to the grid spill rung.  Otherwise it halves as before,
        spilling only once halving bottoms out — and only when the
        policy opted in (a memory budget or spill directory is set).
        Injected OOMs carry no byte accounting, so they always walk the
        halving ladder first, preserving the historical behaviour.
        """
        policy = self.resilience
        if self.grid is not None:
            return  # already at the spill rung; the retry re-streams
        spill = getattr(policy, "spill_enabled", False)
        if spill and self._capacity_beyond_halving(exc):
            self._degrade_to_grid(exc)
            return
        if not self._degrade_partitions(policy.min_partitions) and spill:
            self._degrade_to_grid(exc)

    def _capacity_beyond_halving(self, exc: CapacityError) -> bool:
        """Whether ``exc``'s byte accounting shows halving cannot help."""
        budget = getattr(self.resilience, "memory_budget", None)
        return (
            exc.required_bytes is not None
            and budget is not None
            and exc.required_bytes > budget
        )

    def _degrade_to_grid(self, exc: CapacityError) -> None:
        """The ladder's final rung: spill the edge list to an on-disk grid.

        Shards the store's edge list into ``policy.spill_dir`` (or a
        self-cleaning temporary directory) and attaches the resulting
        :class:`~repro.layout.grid.GridStore`; the supervised retry then
        re-executes the phase by streaming blocks under the memory
        budget.  Journal records and watchdog history address units of
        work that no longer exist, so both are reset.
        """
        from ..layout.grid import GridStore

        policy = self.resilience
        spill_dir = policy.spill_dir
        if spill_dir is None:
            spill_dir = tempfile.mkdtemp(prefix="repro-grid-")
            self._spill_finalizer = weakref.finalize(
                self, shutil.rmtree, spill_dir, True
            )
        grid = GridStore.build(
            self.store.edges,
            spill_dir,
            num_stripes=policy.grid_stripes,
            stripe_mode=getattr(policy, "grid_stripe_mode", "vertex"),
            budget=policy.memory_budget,
            fault_plan=self._fault_plan,
        )
        if self.journal is not None:
            self.journal.invalidate()
        watchdog = getattr(policy, "watchdog", None)
        if watchdog is not None:
            watchdog.reset()
        self.attach_grid(grid)
        message = (
            f"degraded to out-of-core grid execution "
            f"({grid.num_stripes}x{grid.num_stripes} blocks in {spill_dir}) "
            f"after CapacityError: {exc}"
        )
        self.resilience_log.append(message)
        log.warning("%s", message)

    def _degrade_partitions(self, min_partitions: int) -> bool:
        """Halve the partition count and re-derive every layout.

        The graceful-degradation answer to :class:`CapacityError`: fewer
        partitions shrink the bookkeeping footprint (and the PCSR's
        replication, §II.E) at the price of locality.  Returns False when
        already at the floor.
        """
        p = self.store.num_partitions
        new_p = max(min_partitions, p // 2)
        if new_p >= p:
            self.resilience_log.append(
                f"cannot degrade below {p} partition(s); floor is {min_partitions}"
            )
            return False
        self.store = GraphStore.build(
            self.store.edges,
            num_partitions=new_p,
            edge_order=self.store.coo.edge_order,
        )
        self._pcsr = None
        # The old store's layout arrays are obsolete; drop any cached
        # shared-memory copies so workers re-attach the rebuilt ones.
        if self._backend_obj is not None:
            self._backend_obj.discard_layouts()
        # Partition ids changed: journal records and watchdog overrun
        # history no longer address the same units of work.
        if self.journal is not None:
            self.journal.invalidate()
        watchdog = getattr(self.resilience, "watchdog", None)
        if watchdog is not None:
            watchdog.reset()
        self.resilience_log.append(f"degraded partitions {p} -> {new_p} after CapacityError")
        log.warning("degraded partitions %d -> %d after CapacityError", p, new_p)
        return True

    # ------------------------------------------------------------------
    # partition-task supervision: journal, slice rollback, watchdog
    # ------------------------------------------------------------------
    def _run_partition(self, i: int, op: EdgeOperator, lo: int, hi: int, body):
        """Execute one partition task under the journal and watchdog.

        ``body()`` must return a :class:`PartitionRecord` describing the
        task's outputs.  Under supervision the task's write set (the
        ``[lo, hi)`` slice of each vertex-length state array) is
        snapshotted first and rolled back on a
        :class:`~repro.errors.WorkerFailure`, committed records from an
        earlier attempt of the same phase are replayed instead of
        re-executed, and the watchdog's escalation ladder fires on
        (simulated) deadline overruns.
        """
        journal = self.journal if self.resilience is not None else None
        if journal is None:
            self._before_partition(i)
            return body()
        record = self._replayable(journal, op, i, lo, hi)
        if record is not None:
            return record
        journal.note_execution(i)
        self._check_watchdog(i)
        saved = self._partition_snapshot(op, lo, hi)
        try:
            self._before_partition(i)
            record = body()
        except WorkerFailure:
            self._partition_restore(op, lo, hi, saved)
            raise
        record.digest = self._slice_digest(op, lo, hi)
        journal.commit(record)
        return record

    def _replayable(
        self, journal: PhaseJournal, op: EdgeOperator, i: int, lo: int, hi: int
    ) -> PartitionRecord | None:
        """Partition ``i``'s committed record, when a retry may replay it.

        A record replays only while the ``[lo, hi)`` state slice still
        matches its digest; otherwise it is dropped and ``i`` re-executes.
        """
        record = journal.completed(i)
        if record is None:
            return None
        if self._slice_digest(op, lo, hi) == record.digest:
            journal.note_replay(i)
            return record
        journal.drop(i)  # state diverged since the commit; re-execute
        return None

    def _partition_snapshot(self, op: EdgeOperator, lo: int, hi: int):
        """Snapshot one partition task's write set before it executes.

        Vertex-length arrays are captured only over the task's ``[lo,
        hi)`` destination range (its contract-declared write set); any
        other array is copied whole.  Operators with a custom
        ``snapshot`` own state the slicing cannot see, so they fall back
        to their full snapshot/restore pair — still correct here because
        the snapshot is taken at *task* start, when every committed
        partition's writes are already in the arrays.
        """
        if type(op).snapshot is not EdgeOperator.snapshot:
            return ("full", op.snapshot())
        n = self.num_vertices
        saved = {}
        for key, value in vars(op).items():
            if not isinstance(value, np.ndarray):
                continue
            if value.ndim >= 1 and value.shape[0] == n:
                saved[key] = (True, value[lo:hi].copy())
            else:
                saved[key] = (False, value.copy())
        return ("slice", saved)

    def _partition_restore(self, op: EdgeOperator, lo: int, hi: int, snap) -> None:
        """Roll back exactly the write set captured by :meth:`_partition_snapshot`."""
        mode, saved = snap
        if mode == "full":
            op.restore(saved)
            return
        for key, (sliced, value) in saved.items():
            target = getattr(op, key)
            if sliced:
                target[lo:hi] = value
            else:
                target[...] = value

    def _slice_digest(self, op: EdgeOperator, lo: int, hi: int) -> int:
        """CRC32 of the ``[lo, hi)`` slice of every vertex-length state array."""
        n = self.num_vertices
        arrays = vars(op)
        crc = 0
        for key in sorted(arrays):
            value = arrays[key]
            if (
                isinstance(value, np.ndarray)
                and value.ndim >= 1
                and value.shape[0] == n
            ):
                crc = zlib.crc32(np.ascontiguousarray(value[lo:hi]).tobytes(), crc)
        return crc

    def _check_watchdog(self, i: int) -> None:
        """Enforce partition ``i``'s deadline over simulated time.

        The observed elapsed time equals the cost model's prediction
        unless the fault plan injects a ``stall`` — determinism is what
        keeps recovery bit-reproducible.
        """
        watchdog = getattr(self.resilience, "watchdog", None)
        if watchdog is None:
            return
        num_edges = int(self.store.coo.edges_per_partition()[i])
        plan = self._fault_plan
        stalled = plan is not None and plan.take_stall(self._edge_map_index, i)
        elapsed = (
            2.0 * watchdog.deadline_ns(num_edges)
            if stalled
            else watchdog.predicted_ns(num_edges)
        )
        action = watchdog.observe(i, num_edges, elapsed)
        if action is None:
            return
        self.resilience_log.append(
            f"edge-map {self._edge_map_index}: watchdog tripped on partition {i} "
            f"(escalation: {action})"
        )
        if action == "degrade":
            raise CapacityError(
                f"partition {i} stalled repeatedly at edge-map "
                f"{self._edge_map_index}; degrading partition count"
            )
        if action == "requeue":
            self._requeue_partition(i)
        raise StallTimeout(
            f"partition {i} overran its watchdog deadline at edge-map "
            f"{self._edge_map_index}"
        )

    def _requeue_partition(self, i: int) -> None:
        """Move a stalling partition to a different scheduler slot."""
        from ..machine.scheduler import reassign_slot

        costs = self.store.coo.edges_per_partition().astype(np.float64)
        old_slot, new_slot = reassign_slot(costs, self.options.num_threads, i)
        self.resilience_log.append(
            f"requeued partition {i} from scheduler slot {old_slot} "
            f"to slot {new_slot}"
        )
        log.warning(
            "requeued stalling partition %d from slot %d to slot %d",
            i, old_slot, new_slot,
        )

    # ------------------------------------------------------------------
    def _partition_schedule(self, p: int):
        """Partition visit order per ``options.partition_order``.

        Any order is correct for contract-abiding operators (the
        partitioned layouts hand each partition a disjoint destination
        range); ``reverse``/``shuffle`` exist so the sanitizer can verify
        that insensitivity bit-for-bit.
        """
        mode = self.options.partition_order
        if mode == "forward":
            return range(p)
        if mode == "reverse":
            return range(p - 1, -1, -1)
        rng = np.random.default_rng(self.options.partition_order_seed)
        return rng.permutation(p).tolist()

    # ------------------------------------------------------------------
    # partition-batch dispatch through the execution backend
    # ------------------------------------------------------------------
    def _run_partition_batch(
        self,
        op: EdgeOperator,
        kernel: str,
        tasks: list[PartitionTask],
        shared: dict[str, np.ndarray],
        transient: dict[str, np.ndarray],
        meta: dict,
        inline_body,
    ) -> list[PartitionRecord]:
        """Run one phase's partition tasks through the configured backend.

        ``inline_body(task)`` is the kernel's serial partition body; the
        serial path wraps it in :meth:`_run_partition` (journal replay,
        watchdog, slice rollback, fault hooks) exactly as the inline
        loops always did.  A concurrent backend receives the same tasks
        as a :class:`BatchRequest`; any :class:`BackendError` demotes
        the engine to the serial path and re-runs the batch there —
        correct because workers never touch the in-process arrays.
        """
        if self._phase_concurrent and len(tasks) > 1:
            backend = self._execution_backend()
            if backend.concurrent:
                try:
                    return self._run_batch_concurrent(
                        backend, op, kernel, tasks, shared, transient, meta
                    )
                except BackendError as exc:
                    self._note_backend_fallback(exc)

        def run_inline(task: PartitionTask) -> PartitionRecord:
            return self._run_partition(
                task.partition, op, task.lo, task.hi, lambda: inline_body(task)
            )

        request = BatchRequest(
            kernel=kernel, op=op, tasks=tasks, run_inline=run_inline
        )
        return self._serial_backend.run_partitions(request)

    def _run_batch_concurrent(
        self,
        backend,
        op: EdgeOperator,
        kernel: str,
        tasks: list[PartitionTask],
        shared: dict[str, np.ndarray],
        transient: dict[str, np.ndarray],
        meta: dict,
    ) -> list[PartitionRecord]:
        """One concurrent batch, with the supervision the serial loop has.

        Journal replay and commit, watchdog deadlines and fault-plan
        hooks all run *parent-side*: replayable partitions are filtered
        out before dispatch, per-partition hooks fire before the batch
        is submitted (the watchdog stays on simulated time — real
        worker wall-clock would break recovery determinism), and fresh
        records are committed with digests computed after the merge.
        Worker-side guard activity is folded into the engine's guard
        counters from each record's ``cond_calls``.
        """
        journal = self.journal if self.resilience is not None else None
        records: dict[int, PartitionRecord] = {}
        pending: list[PartitionTask] = []
        for task in tasks:
            rec = None
            if journal is not None:
                rec = self._replayable(journal, op, task.partition, task.lo, task.hi)
            if rec is not None:
                records[task.partition] = rec
            else:
                pending.append(task)
        for task in pending:
            if journal is not None:
                journal.note_execution(task.partition)
            self._check_watchdog(task.partition)
            self._before_partition(task.partition)
        if pending:
            request = BatchRequest(
                kernel=kernel,
                op=op,
                tasks=pending,
                shared=shared,
                transient=transient,
                meta=meta,
                validate=not self._op_trusted(op),
                num_vertices=self.num_vertices,
            )
            trusted = self._op_trusted(op)
            for rec in backend.run_partitions(request):
                if trusted:
                    self.guards_skipped += rec.cond_calls
                else:
                    self.guard_invocations += rec.cond_calls
                records[rec.partition] = rec
            if journal is not None:
                for task in pending:
                    rec = records[task.partition]
                    rec.digest = self._slice_digest(op, task.lo, task.hi)
                    journal.commit(rec)
        return [records[task.partition] for task in tasks]

    # ------------------------------------------------------------------
    # the layouts: each only produces its phase's partition records
    # ------------------------------------------------------------------
    def _partition_tasks(self, ranges, extra=None) -> list[PartitionTask]:
        """One task per partition of ``ranges``, in the configured order;
        ``extra(i)`` supplies a kernel-specific payload."""
        return [
            PartitionTask(i, *ranges.vertex_range(i), extra=extra(i) if extra else ())
            for i in self._partition_schedule(ranges.num_partitions)
        ]

    # -- sparse: forward traversal of the unpartitioned CSR -------------
    def _sparse_csr(self, frontier: Frontier, op: EdgeOperator):
        """One kernel call over the whole destination range.

        The phase has no partitions, so it runs outside
        :meth:`_run_partition`: no journal, watchdog or per-partition
        fault hook, and no per-partition stats arrays.
        """
        active = frontier.as_sparse()
        csr = self.store.csr
        src, dst = gather_adjacency(csr.index, csr.neighbors, active)
        rec = run_csr_sparse_partition(
            op, self._cond, src, dst, self.num_vertices, int(active.size)
        )
        return _Traversal("csr", "forward", self.options.num_threads > 1, None), [rec]

    # -- medium-dense: backward traversal of the ranged CSC -------------
    def _backward_csc(self, frontier: Frontier, op: EdgeOperator):
        bitmap = frontier.as_bitmap()
        csc = self.store.csc.csc
        ranges = self.store.csc.partition

        def body(task: PartitionTask) -> PartitionRecord:
            return run_csc_partition(
                op, self._cond, csc.index, csc.neighbors, bitmap,
                task.partition, task.lo, task.hi,
            )

        records = self._run_partition_batch(
            op, "csc", self._partition_tasks(ranges),
            shared={"index": csc.index, "neighbors": csc.neighbors},
            transient={"bitmap": bitmap},
            meta={},
            inline_body=body,
        )
        return _Traversal("csc", "backward", False, ranges.num_partitions), records

    # -- dense: streaming traversal of the partitioned COO --------------
    def _partitioned_coo(self, frontier: Frontier, op: EdgeOperator):
        bitmap = frontier.as_bitmap()
        coo = self.store.coo
        p = coo.num_partitions
        index = coo.partition_index

        def body(task: PartitionTask) -> PartitionRecord:
            src, dst = coo.partition_edges(task.partition)
            return run_coo_partition(
                op, self._cond, src, dst, bitmap, task.partition, task.lo, task.hi
            )

        records = self._run_partition_batch(
            op, "coo",
            self._partition_tasks(
                coo.partition, lambda i: (int(index[i]), int(index[i + 1]))
            ),
            shared={"src": coo.src, "dst": coo.dst},
            transient={"bitmap": bitmap},
            meta={},
            inline_body=body,
        )
        return _Traversal("coo", "forward", p < self.options.num_threads, p), records

    # -- forced: partitioned CSR (Figure 5 layout comparison) -----------
    def _partitioned_csr(self, frontier: Frontier, op: EdgeOperator):
        if self._pcsr is None:
            self._pcsr = self.store.build_partitioned_csr()
        bitmap = frontier.as_bitmap()
        pcsr = self._pcsr
        p = pcsr.num_partitions
        active_ids = frontier.as_sparse()
        tasks = self._partition_tasks(pcsr.partition)
        shared: dict[str, np.ndarray] = {}
        num_stored: dict[int, int] = {}
        for task in tasks:
            part = pcsr.parts[task.partition]
            shared[f"index:{task.partition}"] = part.index
            shared[f"neighbors:{task.partition}"] = part.neighbors
            shared[f"vertex_ids:{task.partition}"] = part.vertex_ids
            num_stored[task.partition] = int(part.num_stored_vertices)

        def body(task: PartitionTask) -> PartitionRecord:
            part = pcsr.parts[task.partition]
            return run_pcsr_partition(
                op, self._cond, part.index, part.neighbors, part.vertex_ids,
                int(part.num_stored_vertices), bitmap, active_ids,
                task.partition, task.lo, task.hi,
            )

        records = self._run_partition_batch(
            op, "pcsr", tasks,
            shared=shared,
            transient={"bitmap": bitmap},
            meta={"active_ids": active_ids, "num_stored": num_stored},
            inline_body=body,
        )
        return _Traversal("pcsr", "forward", p < self.options.num_threads, p), records

    # -- out-of-core: streaming traversal of the on-disk grid -----------
    def _grid_stripes(self, frontier: Frontier, op: EdgeOperator):
        """Stream the P×P grid block-by-block under the memory budget.

        Destination stripes are the write-set unit (each owns a disjoint
        vertex range, like COO partitions); within a stripe the source
        blocks run in ascending order, which — with each block's edges
        sorted by source — reproduces the in-RAM COO path's edge order
        exactly, so results are bit-identical.  Selective scheduling
        skips blocks whose source stripe holds no active vertices
        (GridGraph §3.3).  Recovery is block-granular: each block's
        write set is snapshotted/rolled back individually and committed
        blocks replay from the journal on a supervised retry.
        """
        grid = self.grid
        bitmap = frontier.as_bitmap()
        p = grid.num_stripes
        journal = self.journal if self.resilience is not None else None
        stripe_active = [
            bool(bitmap[lo:hi].any())
            for lo, hi in (grid.stripes.vertex_range(i) for i in range(p))
        ]
        records: list[PartitionRecord] = []
        io = {"bytes": 0, "blocks": 0}
        for j in range(p):
            lo, hi = grid.stripes.vertex_range(j)
            records += self._run_grid_stripe(
                j, op, bitmap, stripe_active, lo, hi, journal, io
            )
        traversal = _Traversal("grid", "forward", False, p, io["bytes"], io["blocks"])
        return traversal, records

    def _run_grid_stripe(
        self, j: int, op: EdgeOperator, bitmap, stripe_active, lo: int, hi: int,
        journal, io: dict,
    ) -> list[PartitionRecord]:
        """Run destination stripe ``j``'s blocks with block-granular recovery.

        On a supervised retry the stripe's destination-slice digest
        decides replayability: matching means the committed blocks'
        writes survived intact (they replay from record and execution
        resumes at the in-flight block); a mismatch drops the records
        and re-executes the stripe from its current state.
        """
        grid = self.grid
        if journal is not None and journal.stripe_has_blocks(j):
            digest = journal.stripe_digest(j)
            if digest is not None and self._slice_digest(op, lo, hi) != digest:
                journal.drop_stripe(j)
        # Decide the whole stripe's block plan up front — skip (inactive
        # source stripe), replay (journaled) or read.  Every input to the
        # decision (block edge counts, the frontier bitmap, the journal's
        # committed blocks) is fixed for the stripe.
        plan: list[tuple[int, str]] = []
        for i in range(grid.num_stripes):
            if grid.block_edges(i, j) == 0:
                continue
            if not stripe_active[i]:
                plan.append((i, "skip"))
                continue
            if journal is not None and journal.completed_block(j, i) is not None:
                plan.append((i, "replay"))
                continue
            plan.append((i, "read"))
        records: list[PartitionRecord] = []
        for i, step in plan:
            if step == "skip":
                grid.stats.blocks_skipped += 1
                continue
            if step == "replay":
                journal.note_block_replay(j, i)
                records.append(journal.completed_block(j, i))
                continue
            if journal is not None:
                journal.note_block_execution(j, i)
            block = grid.read_block(i, j)
            if block.nbytes:
                io["bytes"] += block.nbytes
                io["blocks"] += 1
            self._check_grid_watchdog((i, j), block)
            saved = self._partition_snapshot(op, lo, hi)
            try:
                self._before_partition(j)
                rec = run_coo_partition(
                    op, self._cond, block.src, block.dst, bitmap, j, lo, hi
                )
            except WorkerFailure:
                self._partition_restore(op, lo, hi, saved)
                raise
            if journal is not None:
                journal.commit_block(rec, j, i, self._slice_digest(op, lo, hi))
            records.append(rec)
        return records

    def _check_grid_watchdog(self, block: tuple, read) -> None:
        """Enforce one block read's I/O deadline over simulated time.

        A ``slow_io`` fault makes the observed read time overrun; the
        escalation raises :class:`StallTimeout`, and because the slow
        block is already resident in the grid cache, the supervised
        retry replays committed blocks and re-reads this one for free.
        """
        watchdog = getattr(self.resilience, "watchdog", None)
        if watchdog is None or read.nbytes == 0:
            return
        elapsed = (
            2.0 * watchdog.io_deadline_ns(read.nbytes)
            if read.slow
            else watchdog.predicted_io_ns(read.nbytes)
        )
        action = watchdog.observe_io(block, read.nbytes, elapsed)
        if action is None:
            return
        self.resilience_log.append(
            f"edge-map {self._edge_map_index}: watchdog tripped on grid block "
            f"{block} read (escalation: {action})"
        )
        raise StallTimeout(
            f"grid block {block} read overran its I/O deadline at edge-map "
            f"{self._edge_map_index}"
        )

    # ------------------------------------------------------------------
    # vertex map
    # ------------------------------------------------------------------
    def vertex_map(self, frontier: Frontier, fn) -> None:
        """Apply ``fn(active_vertex_ids)`` once, for its side effects."""
        self.stats.vertex_maps.append(VertexMapStats(frontier_size=frontier.size))
        if not frontier.is_empty:
            fn(frontier.as_sparse())

    def vertex_filter(self, frontier: Frontier, pred) -> Frontier:
        """Keep the active vertices for which ``pred(ids)`` returns True."""
        self.stats.vertex_maps.append(VertexMapStats(frontier_size=frontier.size))
        if frontier.is_empty:
            return frontier
        ids = frontier.as_sparse()
        keep = np.asarray(pred(ids), dtype=bool)
        if keep.shape != ids.shape:
            raise ValueError("predicate must return one boolean per active vertex")
        return Frontier(self.num_vertices, sparse=ids[keep])
