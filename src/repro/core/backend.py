"""Pluggable execution backends for the partitioned traversal kernels.

The paper's destination-partitioned layouts give every partition task a
disjoint ``[lo, hi)`` destination write range, and the effect-inference
pass (:mod:`repro.analysis.effects`) certifies which operators honour
that contract.  :class:`ExecutionBackend` is the seam that turns the
proof into wall-clock speed: the engine hands each partitioned
``edge_map`` phase to the backend as a *batch* of partition tasks, and
the backend decides how they run.

:class:`SerialBackend`
    Runs each task through the engine-provided inline runner — the
    original in-process loop, preserving journal replay, watchdog
    deadlines and fault-injection hooks exactly.

:class:`ProcessBackend`
    A persistent ``ProcessPoolExecutor`` over
    :mod:`multiprocessing.shared_memory`.  Graph layout arrays are
    published once into named shared-memory segments and cached by the
    workers across phases; per-phase state (the frontier bitmap and the
    operator's state arrays) is copied whole into one reused segment per
    array at every dispatch.  Workers rebuild
    the operator around shared-memory views, *re-verify the signed
    safety certificate at attach time*, run the very same kernel
    functions (:mod:`repro.core.kernels`) as the serial path, and write
    their results straight into the disjoint ``[lo, hi)`` slices of the
    shared state copies.  The parent merges those slices back in
    schedule order — the declared commutative ``combine`` contract is
    what makes per-slice copy-back equal to any interleaved execution —
    so the result is bit-identical to serial across any worker count and
    partition order.  Every failure mode (dead pool, shm attach error,
    unpicklable operator state) raises
    :class:`~repro.errors.BackendError`, and because workers only ever
    touch shared-memory *copies*, the engine's arrays are untouched and
    the batch re-runs serially without rollback.

``make_backend`` / :func:`parse_backend_spec` mirror the checkpoint
store registry (:func:`repro.resilience.store.parse_store_spec`): a
backend is selected by a *spec* string — a bare kind (``serial``) or a
kind with colon-separated ``key=value`` options
(``process:workers=8:chunk=auto``).
"""

from __future__ import annotations

import logging
import os
from abc import ABC, abstractmethod
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import get_all_start_methods, get_context, shared_memory
from typing import Any, Callable

import numpy as np

from ..errors import BackendError, ValidationError
from ..resilience.journal import PartitionRecord
from .kernels import (
    run_coo_partition,
    run_csc_partition,
    run_pcsr_partition,
)
from .ops import validated_cond
from .stats import BackendStats

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "PartitionTask",
    "BatchRequest",
    "BACKEND_KINDS",
    "parse_backend_spec",
    "backend_options",
    "make_backend",
]

log = logging.getLogger(__name__)

#: CLI-selectable backend names.
BACKEND_KINDS = ("serial", "process")

#: option names each backend kind accepts in its spec.
_SPEC_OPTIONS = {
    "serial": frozenset(),
    "process": frozenset({"workers", "chunk", "strict", "start"}),
}


def parse_backend_spec(spec: str) -> tuple[str, dict[str, str]]:
    """Parse an ``EngineOptions.backend`` spec into ``(kind, options)``.

    Grammar: ``kind[:key=value]*`` with colon-separated options, e.g.
    ``process:workers=8:chunk=auto:strict=0`` — the same shape as the
    checkpoint ``--store`` specs.  Unknown kinds and options raise
    :class:`~repro.errors.ValidationError` (a :class:`ValueError`
    subclass).
    """
    head, *rest = spec.split(":")
    kind = head.strip()
    if kind not in BACKEND_KINDS:
        raise ValidationError(
            f"unknown backend kind {kind!r}; expected one of {BACKEND_KINDS}"
        )
    options: dict[str, str] = {}
    allowed = _SPEC_OPTIONS[kind]
    for item in rest:
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ValidationError(
                f"bad backend option {item!r} in {spec!r} (expected key=value)"
            )
        if key not in allowed:
            raise ValidationError(
                f"backend kind {kind!r} does not accept option {key!r}; "
                f"allowed: {sorted(allowed) or 'none'}"
            )
        if key in options:
            raise ValidationError(f"duplicate backend option {key!r} in {spec!r}")
        options[key] = value.strip()
    return kind, options


def _default_workers() -> int:
    return max(1, min(4, os.cpu_count() or 1))


def backend_options(spec: str) -> tuple[str, dict[str, Any]]:
    """Parse and *type* a backend spec; the validation behind
    ``EngineOptions.__post_init__``.

    Returns ``(kind, options)`` with ``workers`` (int >= 1), ``chunk``
    (``"auto"`` or int >= 1), ``strict`` (bool: refuse vs. silently
    serialise uncertified operators) and ``start`` (multiprocessing start
    method, or ``None`` for fork-with-spawn-fallback) resolved to their
    defaults.  Raises :class:`~repro.errors.ValidationError` on any
    ill-typed value.
    """
    kind, raw = parse_backend_spec(spec)
    options: dict[str, Any] = {}
    if kind == "serial":
        return kind, options
    try:
        workers = int(raw.get("workers", _default_workers()))
    except ValueError:
        raise ValidationError(
            f"backend option 'workers' must be an integer, got {raw['workers']!r}"
        ) from None
    if workers < 1:
        raise ValidationError(f"backend option 'workers' must be >= 1, got {workers}")
    options["workers"] = workers
    chunk_raw = raw.get("chunk", "auto")
    if chunk_raw == "auto":
        options["chunk"] = "auto"
    else:
        try:
            chunk = int(chunk_raw)
        except ValueError:
            raise ValidationError(
                f"backend option 'chunk' must be 'auto' or an integer, "
                f"got {chunk_raw!r}"
            ) from None
        if chunk < 1:
            raise ValidationError(f"backend option 'chunk' must be >= 1, got {chunk}")
        options["chunk"] = chunk
    strict_raw = raw.get("strict", "1")
    if strict_raw not in ("0", "1"):
        raise ValidationError(
            f"backend option 'strict' must be 0 or 1, got {strict_raw!r}"
        )
    options["strict"] = strict_raw == "1"
    start = raw.get("start")
    if start is not None and start not in get_all_start_methods():
        raise ValidationError(
            f"backend option 'start' must be one of {get_all_start_methods()}, "
            f"got {start!r}"
        )
    options["start"] = start
    return kind, options


def make_backend(spec: str, *, stats: BackendStats | None = None) -> "ExecutionBackend":
    """Build an execution backend from its spec string."""
    kind, options = backend_options(spec)
    if kind == "serial":
        return SerialBackend()
    return ProcessBackend(
        workers=options["workers"],
        chunk=options["chunk"],
        strict=options["strict"],
        start=options["start"],
        stats=stats,
    )


# ----------------------------------------------------------------------
# the batch protocol between the engine and a backend
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PartitionTask:
    """One partition's unit of work within an edge-map phase."""

    partition: int
    #: the disjoint destination vertex range ``[lo, hi)`` this task owns.
    lo: int
    hi: int
    #: kernel-specific picklable payload (the COO kernel carries its
    #: ``(edge_lo, edge_hi)`` slice bounds here).
    extra: tuple = ()


@dataclass
class BatchRequest:
    """One edge-map phase's partition batch, as handed to a backend.

    ``shared`` holds long-lived graph layout arrays a concurrent backend
    may publish once and cache across phases; ``transient`` holds
    per-phase arrays (the frontier bitmap) republished on every
    dispatch; ``meta`` is small picklable kernel metadata.  ``run_inline``
    is the engine's supervised per-task runner — the serial path; it is
    never pickled.
    """

    kernel: str  # "csc" | "coo" | "pcsr"
    op: Any
    tasks: list[PartitionTask]
    shared: dict[str, np.ndarray] = field(default_factory=dict)
    transient: dict[str, np.ndarray] = field(default_factory=dict)
    meta: dict[str, Any] = field(default_factory=dict)
    #: run ``validated_cond`` in the workers (operators the engine does
    #: not trust at runtime, e.g. under ``trust_certificates=False``).
    validate: bool = False
    num_vertices: int = 0
    run_inline: Callable[[PartitionTask], PartitionRecord] | None = None


class ExecutionBackend(ABC):
    """How an engine executes the partition tasks of one edge-map phase."""

    #: short backend identifier (one of :data:`BACKEND_KINDS`).
    kind: str = "abstract"
    #: whether this backend runs partition tasks concurrently.  The
    #: engine only routes a phase here when the operator's certificate
    #: admits it; non-concurrent backends receive the phases through
    #: ``run_inline`` with full journal/watchdog supervision.
    concurrent: bool = False

    @abstractmethod
    def run_partitions(self, request: BatchRequest) -> list[PartitionRecord]:
        """Execute every task in ``request`` and return their records
        in task order."""

    def discard_layouts(self) -> None:
        """Drop any cached layout segments (the graph store changed,
        e.g. after the degradation ladder halved the partition count)."""

    def close(self) -> None:
        """Release every pool/segment this backend holds."""


class SerialBackend(ExecutionBackend):
    """The in-process reference path: one task at a time, fully supervised."""

    kind = "serial"
    concurrent = False

    def run_partitions(self, request: BatchRequest) -> list[PartitionRecord]:
        assert request.run_inline is not None, "serial batch needs an inline runner"
        return [request.run_inline(task) for task in request.tasks]


# ----------------------------------------------------------------------
# shared-memory plumbing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _ArrayRef:
    """A picklable handle to a published shared-memory array."""

    name: str
    dtype: str
    shape: tuple[int, ...]
    #: workers may keep the attachment open for the pool's lifetime
    #: (graph layout arrays, republished only when the store changes).
    cache: bool = False


class _Segment:
    """A parent-owned shared-memory copy of one numpy array."""

    def __init__(self, array: np.ndarray) -> None:
        array = np.ascontiguousarray(array)
        self.shm = shared_memory.SharedMemory(
            create=True, size=max(1, array.nbytes)
        )
        self.view: np.ndarray = np.ndarray(
            array.shape, array.dtype, buffer=self.shm.buf
        )
        self.view[...] = array
        self.nbytes = int(array.nbytes)

    def ref(self, *, cache: bool) -> _ArrayRef:
        return _ArrayRef(
            name=self.shm.name,
            dtype=self.view.dtype.str,
            shape=tuple(self.view.shape),
            cache=cache,
        )

    def release(self) -> None:
        # Drop the exported view first: closing a SharedMemory whose
        # buffer still has live memoryview exports raises BufferError.
        # Unlink before close so the segment never outlives us even if
        # a stray view keeps the mapping pinned a little longer.
        self.view = None
        try:
            self.shm.unlink()
        except OSError:  # already gone (e.g. interpreter teardown races)
            pass
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - a live export pins the map
            pass


def _attach_segment(ref: _ArrayRef) -> tuple[shared_memory.SharedMemory, np.ndarray]:
    """Worker-side attach; returns the handle (keep alive!) and the view."""
    try:
        shm = shared_memory.SharedMemory(name=ref.name)
    except (FileNotFoundError, OSError) as exc:
        raise BackendError(f"cannot attach shm segment {ref.name!r}: {exc}") from exc
    # Attaching re-registers the segment with the resource tracker, but
    # fork/spawn children share the parent's tracker process and its
    # cache is a set, so the duplicate registration is a no-op and the
    # parent's unlink-time unregister cleans up exactly once.  (Worker-
    # side unregister would instead *cancel* the parent's registration
    # and make that unregister fail inside the tracker.)
    view = np.ndarray(ref.shape, np.dtype(ref.dtype), buffer=shm.buf)
    return shm, view


# ----------------------------------------------------------------------
# worker side (module-level: importable under any start method)
# ----------------------------------------------------------------------
#: long-lived layout attachments, keyed by segment name.
_WORKER_SEGMENTS: dict[str, tuple[shared_memory.SharedMemory, np.ndarray]] = {}
#: operator classes whose certificate this worker already re-verified.
_WORKER_VERIFIED: set[type] = set()


def _worker_array(
    ref: _ArrayRef, holds: list[shared_memory.SharedMemory]
) -> np.ndarray:
    if ref.cache:
        entry = _WORKER_SEGMENTS.get(ref.name)
        if entry is None:
            entry = _attach_segment(ref)
            _WORKER_SEGMENTS[ref.name] = entry
        return entry[1]
    shm, view = _attach_segment(ref)
    holds.append(shm)
    return view


def _worker_verify_operator(cls: type, token: tuple[dict, str]) -> None:
    """Re-verify the operator's safety certificate at attach time.

    Two independent checks: the shipped ``(payload, signature)`` token
    must carry an authentic keyed-blake2b signature naming this exact
    class at level *partition-pure*, and the worker re-derives the
    report for the class it actually unpickled and requires the same
    verdict — so neither a tampered token nor a token/class mismatch can
    smuggle an uncertified operator onto a concurrent schedule.
    """
    if cls in _WORKER_VERIFIED:
        return
    from ..analysis.certificate import operator_report, verify_report_token
    from ..analysis.effects import SafetyLevel

    payload, signature = token
    if not verify_report_token(payload, signature):
        raise BackendError(
            f"operator {cls.__name__}: certificate signature failed verification "
            "at worker attach time"
        )
    name = f"{cls.__module__}:{cls.__qualname__}"
    if payload.get("name") != name:
        raise BackendError(
            f"operator certificate names {payload.get('name')!r} but the worker "
            f"attached {name!r}"
        )
    if payload.get("level") != SafetyLevel.PARTITION_PURE.value:
        raise BackendError(
            f"operator {cls.__name__} is not certified partition-pure "
            f"(certificate level: {payload.get('level')!r})"
        )
    local = operator_report(cls)
    if local.safety is not SafetyLevel.PARTITION_PURE:
        raise BackendError(
            f"operator {cls.__name__}: worker-side re-analysis disagrees with "
            f"the shipped certificate (local level: {local.level})"
        )
    _WORKER_VERIFIED.add(cls)


def _plain_cond(op, dst_ids):
    return op.cond(dst_ids)


def _worker_run_chunk(
    opspec: dict,
    kernel: str,
    array_refs: dict[str, _ArrayRef],
    tasks: list[PartitionTask],
    meta: dict,
) -> list[PartitionRecord]:
    """Execute one chunk of partition tasks inside a worker process."""
    holds: list[shared_memory.SharedMemory] = []
    try:
        for name in opspec.get("retired", ()):
            entry = _WORKER_SEGMENTS.pop(name, None)
            if entry is not None:
                try:
                    entry[0].close()
                except BufferError:  # pragma: no cover - view still exported
                    pass
        cls = opspec["class"]
        _worker_verify_operator(cls, opspec["token"])
        op = object.__new__(cls)
        for attr, value in opspec["scalars"].items():
            setattr(op, attr, value)
        for attr, ref in opspec["arrays"].items():
            setattr(op, attr, _worker_array(ref, holds))
        arrays = {key: _worker_array(ref, holds) for key, ref in array_refs.items()}
        cond_fn = validated_cond if opspec["validate"] else _plain_cond
        out: list[PartitionRecord] = []
        for task in tasks:
            if kernel == "csc":
                rec = run_csc_partition(
                    op, cond_fn, arrays["index"], arrays["neighbors"],
                    arrays["bitmap"], task.partition, task.lo, task.hi,
                )
            elif kernel == "coo":
                elo, ehi = task.extra
                rec = run_coo_partition(
                    op, cond_fn, arrays["src"][elo:ehi], arrays["dst"][elo:ehi],
                    arrays["bitmap"], task.partition, task.lo, task.hi,
                )
            elif kernel == "pcsr":
                i = task.partition
                rec = run_pcsr_partition(
                    op, cond_fn,
                    arrays[f"index:{i}"], arrays[f"neighbors:{i}"],
                    arrays[f"vertex_ids:{i}"], meta["num_stored"][i],
                    arrays["bitmap"], meta["active_ids"],
                    i, task.lo, task.hi,
                )
            else:  # pragma: no cover - the engine only emits these three
                raise BackendError(f"unknown kernel {kernel!r}")
            # Dedupe before IPC: the frontier constructor dedups anyway
            # (bit-identical), and unique ids pickle far smaller.
            rec.activated = np.unique(np.asarray(rec.activated))
            out.append(rec)
        return out
    finally:
        # Drop every numpy view before closing: a SharedMemory buffer
        # with live exports refuses to close.  The records escape with
        # fresh arrays only (np.unique copies), never shm views.
        op = None  # noqa: F841
        arrays = None  # noqa: F841
        for shm in holds:
            try:
                shm.close()
            except BufferError:  # pragma: no cover - view GC'd at return
                pass


class ProcessBackend(ExecutionBackend):
    """Partition tasks on a persistent worker pool over shared memory."""

    kind = "process"
    concurrent = True

    def __init__(
        self,
        workers: int | None = None,
        chunk: int | str = "auto",
        strict: bool = True,
        start: str | None = None,
        stats: BackendStats | None = None,
    ) -> None:
        self.workers = workers or _default_workers()
        self.chunk = chunk
        #: refuse uncertified operators (the engine consults this at
        #: admission; non-strict engines silently run them serially).
        self.strict = strict
        self._start = start
        self.stats = stats if stats is not None else BackendStats(kind=self.kind)
        self._executor: ProcessPoolExecutor | None = None
        #: published layout segments, keyed by ``id(array)``; the
        #: ``_pinned`` dict keeps the arrays alive so ids stay unique.
        self._layouts: dict[int, _Segment] = {}
        self._pinned: dict[int, np.ndarray] = {}
        #: reused state segments, keyed by ``(scope, attr)`` —
        #: operator-state arrays scoped by operator class, per-phase
        #: frontier arrays scoped ``"batch"``.
        self._state_segments: dict[tuple[str, str], _Segment] = {}
        #: recently retired segment names, shipped with every opspec so
        #: workers drop their cached attachments.
        self._retired_names: deque[str] = deque(maxlen=64)

    # ------------------------------------------------------------------
    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            method = self._start or (
                "fork" if "fork" in get_all_start_methods() else "spawn"
            )
            try:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=get_context(method)
                )
            except OSError as exc:
                raise BackendError(f"cannot start worker pool: {exc}") from exc
            self.stats.workers_spawned += self.workers
            log.info(
                "process backend: started %d worker(s) (%s start method)",
                self.workers, method,
            )
        return self._executor

    def _teardown_executor(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def worker_pids(self) -> list[int]:
        """PIDs of the live pool processes (fault-injection tests)."""
        if self._executor is None:
            return []
        return [p.pid for p in self._executor._processes.values()]

    # ------------------------------------------------------------------
    def _layout_ref(self, array: np.ndarray) -> _ArrayRef:
        key = id(array)
        segment = self._layouts.get(key)
        if segment is None:
            segment = _Segment(array)
            self._layouts[key] = segment
            self._pinned[key] = array
            self.stats.shm_bytes_mapped += segment.nbytes
        return segment.ref(cache=True)

    def discard_layouts(self) -> None:
        for segment in self._layouts.values():
            segment.release()
        self._layouts.clear()
        self._pinned.clear()

    def close(self) -> None:
        self._teardown_executor()
        self.discard_layouts()
        for key in list(self._state_segments):
            self._retire_state(key)

    # -- reused state segments -----------------------------------------
    def _retire_state(self, key: tuple[str, str]) -> None:
        segment = self._state_segments.pop(key, None)
        if segment is not None:
            self._retired_names.append(segment.shm.name)
            segment.release()

    def _publish_state(self, scope: str, attr: str, value: np.ndarray) -> _Segment:
        """Copy one state array into its reused ``(scope, attr)`` segment.

        The first publication creates a named segment (counted in
        ``shm_bytes_mapped``); later ones copy the whole array into it
        (``shm_bytes_republished``).  A shape or dtype change retires
        the segment and maps a fresh one.
        """
        key = (scope, attr)
        segment = self._state_segments.get(key)
        if segment is not None:
            if segment.view.shape == value.shape and segment.view.dtype == value.dtype:
                segment.view[...] = value
                self.stats.shm_bytes_republished += segment.nbytes
                return segment
            self._retire_state(key)
        segment = _Segment(value)
        self._state_segments[key] = segment
        self.stats.shm_bytes_mapped += segment.nbytes
        return segment

    def _chunks(self, tasks: list[PartitionTask]) -> list[list[PartitionTask]]:
        if self.chunk == "auto":
            # Two chunks per worker: cheap dynamic load balance without
            # drowning small batches in per-future overhead.
            size = max(1, -(-len(tasks) // (self.workers * 2)))
        else:
            size = int(self.chunk)
        return [tasks[i : i + size] for i in range(0, len(tasks), size)]

    # ------------------------------------------------------------------
    def run_partitions(self, request: BatchRequest) -> list[PartitionRecord]:
        try:
            return self._dispatch(request)
        except BackendError:
            self._teardown_executor()
            raise
        except BrokenProcessPool as exc:
            self._teardown_executor()
            raise BackendError(f"worker pool died: {exc}") from exc
        except Exception as exc:
            # Anything else that escapes the dispatch — a pickling
            # failure, an shm exhaustion OSError, an operator exception
            # inside a worker — is recoverable the same way: the
            # engine's arrays are untouched (workers write copies), so
            # the serial re-run either succeeds or reproduces a genuine
            # operator bug in-process where it is debuggable.
            self._teardown_executor()
            raise BackendError(
                f"process backend dispatch failed: {type(exc).__name__}: {exc}"
            ) from exc

    def _dispatch(self, request: BatchRequest) -> list[PartitionRecord]:
        from ..analysis.certificate import signed_report_token

        executor = self._ensure_executor()
        op = request.op
        cls = type(op)
        op_scope = f"{cls.__module__}:{cls.__qualname__}"
        array_refs: dict[str, _ArrayRef] = {
            key: self._layout_ref(arr) for key, arr in request.shared.items()
        }
        for key, arr in request.transient.items():
            array_refs[key] = self._publish_state("batch", key, arr).ref(cache=True)
        state: dict[str, tuple[_Segment, np.ndarray]] = {}
        scalars: dict[str, Any] = {}
        for attr, value in vars(op).items():
            if isinstance(value, np.ndarray):
                state[attr] = (self._publish_state(op_scope, attr, value), value)
            else:
                scalars[attr] = value
        opspec = {
            "class": cls,
            "scalars": scalars,
            "arrays": {
                attr: seg.ref(cache=True) for attr, (seg, _) in state.items()
            },
            "token": signed_report_token(cls),
            "validate": request.validate,
            "retired": tuple(self._retired_names),
        }
        # Workers write only the shared copies; the operator's own arrays
        # change in _merge_state, after every chunk succeeded, so a failed
        # batch leaves them pristine for the serial re-run.
        futures = [
            executor.submit(
                _worker_run_chunk, opspec, request.kernel,
                array_refs, chunk, request.meta,
            )
            for chunk in self._chunks(request.tasks)
        ]
        records: dict[int, PartitionRecord] = {}
        for future in futures:
            for rec in future.result():
                records[rec.partition] = rec
        missing = [t.partition for t in request.tasks if t.partition not in records]
        if missing:
            raise BackendError(f"workers returned no record for {missing}")
        self._merge_state(request, state, records)
        self.stats.batches_dispatched += 1
        self.stats.partitions_dispatched += len(request.tasks)
        return [records[t.partition] for t in request.tasks]

    def _merge_state(
        self,
        request: BatchRequest,
        state: dict[str, tuple[_Segment, np.ndarray]],
        records: dict[int, PartitionRecord],
    ) -> None:
        """Fold the workers' shared-memory writes back into the operator.

        The certificate's write set names the attributes the operator
        may scatter into; each partition's writes are confined to its
        disjoint ``[lo, hi)`` slice (that *is* the partition-pure
        contract the workers re-verified), so copying each record's
        slice commits the phase regardless of the order the tasks ran
        in — the ``combine`` merge degenerates to disjoint assignment.
        """
        report = operator_report_for_merge(type(request.op))
        written = {attr for attr, _ in report.write_sets} if report else None
        n = request.num_vertices
        for attr, (segment, original) in state.items():
            if written is not None and attr not in written:
                continue
            if original.ndim >= 1 and original.shape[0] == n:
                for task in request.tasks:
                    rec = records[task.partition]
                    original[rec.lo : rec.hi] = segment.view[rec.lo : rec.hi]
            else:
                # Non-vertex-length writable state cannot be certified
                # partition-pure, so this branch is unreachable for
                # admitted operators; kept as a conservative whole-copy.
                original[...] = segment.view


def operator_report_for_merge(cls: type):
    """The cached operator report, or ``None`` if analysis is impossible
    (then the merge conservatively copies every state array back)."""
    try:
        from ..analysis.certificate import operator_report

        return operator_report(cls)
    except Exception:  # pragma: no cover - analysis failure fallback
        return None

