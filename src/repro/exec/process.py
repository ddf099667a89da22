"""Shared-memory process sharding for batch queries (DESIGN.md §12).

:class:`ProcessShardExecutor` runs :class:`~repro.lsh.index.StandardLSH`
batch queries across a persistent pool of **processes** instead of the
``n_jobs`` thread pool — true multi-core execution for the GIL-bound
parts of the pipeline.  The read-only index arrays (data rows, external
ids, cached norms, tombstones, and every table's CSR layout) are
materialized into one :class:`multiprocessing.shared_memory.SharedMemory`
segment exactly once; each worker reconstructs zero-copy numpy views
over that segment and answers contiguous ``max_batch_rows`` row shards
dispatched over a pipe.

Contracts (mirroring :func:`repro.exec.run_shards`):

- results are **bit-identical** to the unsharded in-process run given an
  integer ``hierarchy_threshold`` (the stages are row-independent; the
  workers execute the very same plan code over views of the very same
  arrays);
- one **absolute deadline** is shared by every shard: the expiry is
  shipped to workers as an absolute ``time.monotonic()`` timestamp
  (system-wide on Linux, shippable across processes), and shards not yet
  dispatched when the budget expires return padded answers flagged
  ``exhausted_budget``;
- with a :class:`~repro.resilience.policy.ResiliencePolicy`, a shard
  whose worker **dies mid-batch** is retried on a fresh worker and then
  answered by an exact brute-force scan, with the affected rows flagged
  ``degraded`` — never a wrong or missing answer.

Buffer-lifetime ownership (the ``np.frombuffer``-on-``SharedMemory``
trap): a numpy view built from ``shm.buf`` holds a memoryview export of
the segment, and ``shm.close()`` while any such view is alive raises
``BufferError`` (or, if the ``SharedMemory`` object is simply dropped,
leaves views pointing at an unmapped segment).  The rule used throughout
this module: every view's lifetime is bounded by the owning
``SharedMemory`` object — the parent's copy-in views are function-local
and dead before ``close()`` can run, and a worker drops its index (and
with it every view) before closing its handle on shutdown.
"""

from __future__ import annotations

import atexit
import os
import signal
import threading
import weakref
from multiprocessing import get_context
from multiprocessing.connection import Connection
from multiprocessing.shared_memory import SharedMemory
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

import numpy as np

from repro import obs
from repro.exec.context import ExecutionContext, QueryStats
from repro.exec.plan import QueryPlan, Stage
from repro.resilience.deadline import Deadline
from repro.resilience.policy import FailureRecord, ResiliencePolicy

if TYPE_CHECKING:  # runtime import would cycle: lsh.index imports repro.exec
    from repro.lsh.index import StandardLSH

__all__ = ["ProcessShardExecutor", "WorkerCrashError"]

#: Segment byte alignment for every array (cache-line friendly, and keeps
#: any dtype's natural alignment satisfied).
_ALIGN = 64

#: One manifest entry: ``(key, dtype_str, shape, byte_offset)``.
_ManifestEntry = Tuple[str, str, Tuple[int, ...], int]


class WorkerCrashError(RuntimeError):
    """A shard worker process died before delivering its result."""


# ---------------------------------------------------------------------------
# Abnormal-exit SHM cleanup.  A SharedMemory segment is a kernel object
# (/dev/shm/...) that outlives the process unless unlink() runs; a parent
# killed by SIGTERM — or one that simply forgets close() — would leak the
# whole index copy until reboot.  Every live executor registers in a weak
# set, and a process-wide atexit hook plus a chaining SIGTERM handler
# close (and therefore unlink) whatever is still open on the way down.
# SIGKILL cannot be caught by design; that residual case is documented in
# DESIGN.md §13 (stale segments are keyed by a fresh random name per run,
# so a leaked one is never re-attached, only wasted until cleanup).
# ---------------------------------------------------------------------------

_LIVE_EXECUTORS: "weakref.WeakSet[ProcessShardExecutor]" = weakref.WeakSet()
_CLEANUP_INSTALLED = False
_PREV_SIGTERM_HANDLER: object = None


def _cleanup_live_executors() -> None:
    """Close every still-open executor (atexit path)."""
    for executor in list(_LIVE_EXECUTORS):
        try:
            executor.close()
        except Exception:  # invariant: disable=R5,R7 — best-effort teardown
            # on the way out of a dying process; there is no registry left
            # to record into and raising would mask the original exit cause.
            pass  # invariant: disable=R5 — see handler justification above


def _sigterm_cleanup(signum: int, frame: object) -> None:
    # The handler runs on the main thread at an arbitrary point — possibly
    # while it holds an executor lock mid-run_batch.  A full close()
    # (worker joins, pipe sends, metrics drain) could deadlock there, so
    # only unlink the SHM names: that is the actual leak being prevented
    # (the kernel frees the memory once the dying process's mappings go),
    # and unlink is a single re-entrant syscall per segment.
    for executor in list(_LIVE_EXECUTORS):
        try:
            executor._emergency_unlink()
        except Exception:  # invariant: disable=R5,R7 — best-effort unlink
            # on the way down; raising would mask the termination itself.
            pass  # invariant: disable=R5 — see comment above
    if callable(_PREV_SIGTERM_HANDLER):
        _PREV_SIGTERM_HANDLER(signum, frame)
    else:
        # Preserve the conventional "terminated by SIGTERM" exit status.
        raise SystemExit(143)


def _install_cleanup_hooks() -> None:
    """Register the atexit + SIGTERM hooks once per process (lazy)."""
    global _CLEANUP_INSTALLED, _PREV_SIGTERM_HANDLER
    if _CLEANUP_INSTALLED:
        return
    _CLEANUP_INSTALLED = True
    atexit.register(_cleanup_live_executors)
    try:
        current = signal.getsignal(signal.SIGTERM)
        if current is signal.SIG_IGN:
            # The embedding process deliberately ignores SIGTERM; an
            # ignored signal never kills it, so there is nothing to clean
            # up — and installing our handler would turn SIG_IGN into an
            # exit, a behavior change we must not make.
            _PREV_SIGTERM_HANDLER = None
        else:
            _PREV_SIGTERM_HANDLER = signal.signal(signal.SIGTERM,
                                                  _sigterm_cleanup)
    except (ValueError, OSError):  # invariant: disable=R7 — signal() only
        # works from the main thread; an executor built on a worker thread
        # still gets atexit coverage, which is the load-bearing half.
        _PREV_SIGTERM_HANDLER = None


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _segment_view(shm: SharedMemory, dtype_str: str,
                  shape: Tuple[int, ...], offset: int,
                  writeable: bool = False) -> np.ndarray:
    """A numpy view over one manifest entry of the shared segment.

    The returned array references ``shm.buf`` (via ``.base``) but does
    NOT own the segment: the caller must guarantee the view is dropped
    before ``shm.close()`` — see the module docstring's ownership rule.
    """
    count = 1
    for extent in shape:
        count *= int(extent)
    view = np.frombuffer(shm.buf, dtype=np.dtype(dtype_str), count=count,
                         offset=offset).reshape(shape)
    view.flags.writeable = writeable
    return view


def _materialize(index: "StandardLSH",
                 ) -> Tuple[SharedMemory, List[_ManifestEntry], dict]:
    """Copy the index's read-only arrays into one fresh SHM segment.

    Returns ``(shm, manifest, meta)``; the parent owns ``shm`` (it must
    ``close()`` + ``unlink()`` it) and every copy-in view created here is
    local to this function, so no export outlives the call.
    """
    index._check_fitted()
    if isinstance(index._data, np.memmap):
        raise ValueError(
            "ProcessShardExecutor requires in-memory data (memmapped "
            "datasets already bound their working set; shard them with "
            "max_batch_rows instead)")
    if any(table.n_extra for table in index._tables):
        # The overlay is mutable post-build state; the shared segment is
        # a frozen snapshot.  One rebuild folds the overlay into the CSR
        # layout and restores the shareable invariant.
        index._rebuild_tables()

    arrays: List[Tuple[str, np.ndarray]] = [
        ("data", np.ascontiguousarray(index._data, dtype=np.float64)),
        ("ids", np.ascontiguousarray(index._ids, dtype=np.int64)),
        ("sq_norms", np.ascontiguousarray(index._point_sq_norms(),
                                          dtype=np.float64)),
    ]
    if index._deleted is not None:
        arrays.append(("deleted", np.ascontiguousarray(index._deleted,
                                                       dtype=np.bool_)))
    for t, (family, table) in enumerate(zip(index._families,
                                            index._tables)):
        arrays.append((f"f{t}/directions",
                       np.ascontiguousarray(family.directions,
                                            dtype=np.float64)))
        arrays.append((f"f{t}/offsets_unit",
                       np.ascontiguousarray(family.offsets_unit,
                                            dtype=np.float64)))
        arrays.append((f"t{t}/bucket_codes",
                       np.ascontiguousarray(table._bucket_codes,
                                            dtype=np.int64)))
        arrays.append((f"t{t}/starts",
                       np.ascontiguousarray(table._starts, dtype=np.int64)))
        arrays.append((f"t{t}/ends",
                       np.ascontiguousarray(table._ends, dtype=np.int64)))
        arrays.append((f"t{t}/sorted_ids",
                       np.ascontiguousarray(table._sorted_ids,
                                            dtype=np.int64)))

    manifest: List[_ManifestEntry] = []
    offset = 0
    for key, arr in arrays:
        offset = _align(offset)
        manifest.append((key, arr.dtype.str, tuple(arr.shape), offset))
        offset += arr.nbytes
    shm = SharedMemory(create=True, size=max(offset, 1))
    for (key, arr), (_, dtype_str, shape, off) in zip(arrays, manifest):
        # Copy-in view: function-local on purpose — it dies with this
        # frame, long before the parent's shm.close()/unlink().
        _segment_view(shm, dtype_str, shape, off, writeable=True)[...] = arr

    meta = {
        "n_hashes": index.n_hashes,
        "n_tables": index.n_tables,
        "bucket_width": index.bucket_width,
        "lattice": index.lattice_kind,
        "n_probes": index.n_probes,
        "hierarchy": index.use_hierarchy,
        "adaptive_probing": index.adaptive_probing,
        "probe_confidence": index.probe_confidence,
        "has_deleted": index._deleted is not None,
    }
    return shm, manifest, meta


def _reconstruct_index(shm: SharedMemory, manifest: List[_ManifestEntry],
                       meta: dict) -> "StandardLSH":
    """Rebuild a queryable ``StandardLSH`` over zero-copy segment views.

    Runs in the worker process.  Every array attribute of the returned
    index is a read-only view into ``shm`` — the caller must keep the
    index referenced strictly within the lifetime of its ``shm`` handle.
    The only per-worker allocations are the packed bucket keys (one
    ``pack_codes`` pass per table, O(buckets)) and, with hierarchies, the
    deterministic per-table bucket hierarchy — both derived from the
    shared CSR arrays, so worker answers stay bit-identical.
    """
    from repro.lsh.functions import PStableHashFamily
    from repro.lsh.index import StandardLSH, make_lattice
    from repro.lsh.table import LSHTable, pack_codes

    views: Dict[str, np.ndarray] = {
        key: _segment_view(shm, dtype_str, shape, off)
        for key, dtype_str, shape, off in manifest
    }
    index = object.__new__(StandardLSH)
    index.n_hashes = int(meta["n_hashes"])
    index.n_tables = int(meta["n_tables"])
    index.bucket_width = float(meta["bucket_width"])
    index.lattice_kind = str(meta["lattice"])
    index.n_probes = int(meta["n_probes"])
    index.use_hierarchy = bool(meta["hierarchy"])
    index.adaptive_probing = bool(meta["adaptive_probing"])
    index.probe_confidence = float(meta["probe_confidence"])
    index._seed = None
    index._data = views["data"]
    index._ids = views["ids"]
    index._sq_norms = views["sq_norms"]
    index._deleted = views["deleted"] if meta["has_deleted"] else None
    index._lattice = make_lattice(index.lattice_kind, index.n_hashes)
    index._update_lock = threading.RLock()
    index._norms_lock = threading.Lock()
    dim = views["data"].shape[1]
    families: List[PStableHashFamily] = []
    tables: List[LSHTable] = []
    hierarchies: List[object] = []
    for t in range(index.n_tables):
        family = object.__new__(PStableHashFamily)
        family.directions = views[f"f{t}/directions"]
        family.offsets_unit = views[f"f{t}/offsets_unit"]
        family.dim = dim
        family._n_hashes = index.n_hashes
        family.bucket_width = index.bucket_width
        families.append(family)
        table = object.__new__(LSHTable)
        table._bucket_codes = views[f"t{t}/bucket_codes"]
        table._starts = views[f"t{t}/starts"]
        table._ends = views[f"t{t}/ends"]
        table._sorted_ids = views[f"t{t}/sorted_ids"]
        table.code_dim = table._bucket_codes.shape[1]
        table.n_points = table._sorted_ids.shape[0]
        table._bucket_keys = pack_codes(table._bucket_codes)
        table._overlay_lock = threading.Lock()
        table._extra_codes = []
        table._extra_ids = []
        table._overlay = None
        table._n_extra = 0
        tables.append(table)
    index._families = families
    index._tables = tables
    for table in tables:
        if index.use_hierarchy:
            hierarchies.append(index._build_hierarchy(table))
    index._hierarchies = hierarchies
    return index


def _worker_main(conn: Connection, shm_name: str,
                 manifest: List[_ManifestEntry], meta: dict,
                 engine: str, sink_name: Optional[str],
                 sink_schema: Optional[object], slot: int) -> None:
    """Worker process loop: reconstruct once, answer shards until 'stop'.

    ``sink_name``/``sink_schema``/``slot`` locate this worker's slot in
    the parent's shared-memory metrics segment (``None`` disables the
    plane, e.g. the benchmark baseline).  Observability inside the
    worker is driven entirely by the :class:`~repro.obs.TraceContext`
    shipped with each shard: when present, the worker enables ``obs``
    onto its slot registry for the duration of the shard (so every
    counter/histogram the pipeline records lands in shared memory) and
    returns its sampled trace dicts with the result; when absent, the
    worker runs fully un-instrumented — the parent's gate state is
    thereby mirrored per shard, preserving the ≤2%-when-off contract.
    """
    # Python < 3.13 registers every *attach* with the resource tracker,
    # which would try to clean up the parent-owned segment at interpreter
    # shutdown (and register/unregister pairs from sibling workers race
    # on the tracker's name set).  The parent is the sole owner: suppress
    # the registration for the duration of the attach.
    from multiprocessing import resource_tracker

    from repro.obs import shm as obs_shm

    original_register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        shm = SharedMemory(name=shm_name)
    finally:
        resource_tracker.register = original_register
    index: Optional[object] = None
    worker_slot: Optional[obs_shm.WorkerSlot] = None
    try:
        index = _reconstruct_index(shm, manifest, meta)
        if sink_name is not None and sink_schema is not None:
            try:
                worker_slot = obs_shm.attach_worker_slot(
                    sink_name, sink_schema, slot)
            except (OSError, ValueError) as error:  # invariant: disable=R7 — surfaced to the parent as a startup event
                # (non-fatal: the worker still answers shards, just
                # un-instrumented).
                conn.send(("event", "metrics_attach_failed",
                           type(error).__name__))
        conn.send(("ready", os.getpid()))
        while True:
            msg = conn.recv()
            if msg[0] == "stop":
                break
            (_, shard_id, queries, k, threshold, budget_ms,
             expires_at, tctx) = msg
            deadline = None
            if expires_at is not None:
                # Reconstruct the parent's absolute deadline: monotonic
                # clocks are system-wide on Linux, so the shipped expiry
                # means the same instant in this process.
                deadline = object.__new__(Deadline)
                deadline.budget_ms = budget_ms
                deadline._expires_at = expires_at
            wob: Optional[obs.Observer] = None
            if worker_slot is not None and tctx is not None:
                wob = obs.enable(registry=worker_slot.registry,
                                 trace_sample_rate=tctx.sample_rate,
                                 trace_seed=tctx.trace_seed)
                wob.record_worker_event("shard_recv")
                # perf_counter is system-wide monotonic (same clock the
                # shipped deadline relies on): parent send → worker recv.
                wob.observe_queue_wait(max(0.0, wob.clock() - tctx.sent_at))
            elif obs.enabled():
                obs.disable()
            try:
                ids, dists, stats = index.query_batch(
                    queries, k, hierarchy_threshold=threshold,
                    engine=engine, deadline=deadline)
            except Exception as error:  # invariant: disable=R7 — shipped
                # to the parent, whose policy records it (note_failure).
                if wob is not None:
                    wob.record_worker_event("shard_err")
                    obs.disable()
                conn.send(("err", shard_id, type(error).__name__,
                           str(error)))
                continue
            reply_meta: Optional[dict] = None
            if wob is not None:
                wob.record_worker_event("shard_ok")
                reply_meta = {
                    "worker": slot,
                    "pid": os.getpid(),
                    "traces": [t.to_dict() for t in wob.tracer.traces()],
                }
                obs.disable()
            conn.send(("ok", shard_id, ids, dists, stats.n_candidates,
                       stats.escalated, stats.exhausted_budget,
                       reply_meta))
    except EOFError:  # invariant: disable=R5,R7 — parent vanished; no
        # surviving side to record to, exit quietly.
        pass
    finally:
        # Ownership rule: the index holds views into shm (and the slot
        # writer holds views into the metrics segment) — drop every
        # reference before close(), or close() raises BufferError over
        # the live memoryview exports.
        del index
        if worker_slot is not None:
            worker_slot.close()
        conn.close()
        shm.close()


class _Worker:
    """One pooled worker process plus its parent-side pipe end."""

    def __init__(self, process: object, conn: Connection) -> None:
        self.process = process
        self.conn = conn

    def alive(self) -> bool:
        return bool(self.process.is_alive())


class ProcessShardExecutor:
    """Persistent process pool answering row shards over shared memory.

    Parameters
    ----------
    index:
        A fitted, in-memory :class:`~repro.lsh.index.StandardLSH`.  The
        executor snapshots its arrays at construction: later inserts or
        deletes on ``index`` are **not** visible to the workers (build a
        new executor after structural updates).
    n_workers:
        Pool size.  Each worker holds zero-copy views, so memory cost is
        one segment regardless of pool size.
    engine:
        Engine the workers run per shard: ``"vectorized"`` (default) or
        ``"native"`` (each worker resolves its own compiled backend).
    metrics:
        When True (default) the executor allocates the cross-process
        metrics segment (one :class:`repro.obs.shm` slot per worker, a
        few KiB total) so worker-side recordings and traces survive the
        process boundary.  The segment costs nothing per query while
        observability is disabled — workers only write their slot for
        shards carrying a :class:`~repro.obs.TraceContext`.  ``False``
        skips the allocation entirely (the overhead-benchmark baseline).
    """

    #: Supervision site label (failure records, obs counters).
    SITE = "exec.process"

    def __init__(self, index: "StandardLSH", n_workers: int = 2,
                 engine: str = "vectorized", metrics: bool = True) -> None:
        from repro.native.registry import REGISTERED_ENGINES
        from repro.obs import shm as obs_shm

        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if engine not in REGISTERED_ENGINES or engine == "scalar":
            raise ValueError(
                f"engine must be 'vectorized' or 'native' for process "
                f"sharding, got {engine!r}")
        self._index = index
        self._engine = engine
        self.n_workers = int(n_workers)
        self._ctx = get_context("spawn")
        self._closed = False
        self._batch_seq = 0
        import time  # invariant: disable=R6 — one-time pool setup timing,
        # recorded through the obs setup histogram, never per-query.

        t0 = time.perf_counter()  # invariant: disable=R6 — setup-only timing
        self._shm, self._manifest, self._meta = _materialize(index)
        self._sink: Optional[obs_shm.ShmMetricsSink] = None
        self._sink_schema: Optional[obs_shm.SlotSchema] = None
        if metrics:
            self._sink_schema = obs_shm.build_worker_schema(index.n_tables)
            self._sink = obs_shm.ShmMetricsSink(self._sink_schema,
                                                self.n_workers)
        self._workers: List[Optional[_Worker]] = [None] * self.n_workers
        # Abnormal-exit coverage: from here on the segment exists, so the
        # executor must be findable by the atexit/SIGTERM sweep.
        _install_cleanup_hooks()
        _LIVE_EXECUTORS.add(self)
        for widx in range(self.n_workers):
            self._spawn(widx)
        self.setup_seconds = time.perf_counter() - t0  # invariant: disable=R6 — setup-only timing
        ob = obs.active()
        if ob is not None:
            ob.record_native_setup("process", self.setup_seconds)
            ob.record_shm_bytes("index", int(self._shm.size))
            if self._sink is not None:
                ob.record_shm_bytes("metrics", self._sink.nbytes)

    # ------------------------------------------------------------ lifecycle

    def _spawn(self, widx: int) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        sink_name = None if self._sink is None else self._sink.name
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._shm.name, self._manifest, self._meta,
                  self._engine, sink_name, self._sink_schema, widx),
            daemon=True)
        process.start()
        child_conn.close()
        worker = _Worker(process, parent_conn)
        ready = self._recv(worker)
        while ready[0] == "event":  # non-fatal startup notices
            ready = self._recv(worker)
        if ready[0] != "ready":
            raise WorkerCrashError(
                f"shard worker {widx} failed to initialize: {ready!r}")
        self._workers[widx] = worker
        ob = obs.active()
        if ob is not None:
            ob.record_worker_event("spawn")
            ob.record_worker_state(widx, True)
        return worker

    def _recv(self, worker: _Worker) -> tuple:
        """One pipe read, normalizing every death mode to WorkerCrashError."""
        try:
            return worker.conn.recv()
        except (EOFError, ConnectionResetError, OSError) as error:
            raise WorkerCrashError(
                f"shard worker died mid-batch "
                f"({type(error).__name__})") from error

    def _retire(self, widx: int) -> None:
        """Drop a dead/poisoned worker; the slot respawns on next use."""
        worker = self._workers[widx]
        self._workers[widx] = None
        if worker is None:
            return
        worker.conn.close()
        if worker.alive():
            worker.process.terminate()
        worker.process.join(timeout=5.0)
        ob = obs.active()
        if ob is not None:
            ob.record_worker_event("death")
            ob.record_worker_state(widx, False)

    def _ensure_worker(self, widx: int) -> _Worker:
        worker = self._workers[widx]
        if worker is not None and worker.alive():
            return worker
        if worker is not None:
            self._retire(widx)
        ob = obs.active()
        if ob is not None:
            ob.record_worker_event("respawn")
        return self._spawn(widx)

    def worker_pids(self) -> List[int]:
        """Live worker PIDs (chaos tests kill one of these)."""
        return [w.process.pid for w in self._workers
                if w is not None and w.alive()]

    def close(self) -> None:
        """Stop the pool and release the shared segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        _LIVE_EXECUTORS.discard(self)
        for widx, worker in enumerate(self._workers):
            if worker is None:
                continue
            try:
                worker.conn.send(("stop",))
            except (BrokenPipeError, OSError) as error:  # invariant: disable=R7 — recorded below via record_worker_event
                ob = obs.active()  # worker already dead: count it, move on
                if ob is not None:
                    ob.record_worker_event(
                        f"stop_send_failed:{type(error).__name__}")
            worker.process.join(timeout=5.0)
            if worker.alive():
                worker.process.terminate()
                worker.process.join(timeout=5.0)
            worker.conn.close()
            self._workers[widx] = None
        # Final drain after every worker has exited: whatever the
        # workers wrote up to their last shard is folded into the active
        # registry before the segment disappears.
        self.drain_metrics()
        if self._sink is not None:
            self._sink.close()
        # Parent owns the segment: every parent-side view was local to
        # _materialize(), so no exports remain and close() cannot raise
        # BufferError; unlink() then frees the backing memory.
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # invariant: disable=R5,R7 — the name
            # is already gone because _emergency_unlink() ran first (the
            # SIGTERM handler); the leak this close() prevents is gone too.
            pass

    def _emergency_unlink(self) -> None:
        """Unlink the SHM names without joining workers (SIGTERM handler).

        Removes only the ``/dev/shm`` entries — the actual cross-reboot
        leak — via one re-entrant syscall per segment.  Existing mappings
        stay valid (a worker mid-shard keeps its views), and the memory
        itself is freed by the kernel when the dying process's mappings
        go away.  A later full :meth:`close` treats the already-gone
        name as a no-op.
        """
        try:
            self._shm.unlink()
        except (FileNotFoundError, OSError):  # invariant: disable=R5,R7 —
            pass  # best-effort on the way down; nothing left to record to
        if self._sink is not None:
            self._sink.emergency_unlink()

    def __enter__(self) -> "ProcessShardExecutor":
        return self

    def __exit__(self, exc_type: object, exc: object,
                 tb: object) -> None:
        self.close()

    # ------------------------------------------------------------- querying

    def execution_plan(self, engine: Optional[str] = None,
                       hierarchy_threshold: Union[str, int] = "median",
                       ) -> QueryPlan:
        """Staged :class:`~repro.exec.plan.QueryPlan` over the pool.

        :func:`repro.exec.run_plan` owns policy resolution, validation,
        non-finite-row degrading and the deadline, exactly as for the
        in-process front-ends; the plan's single stage dispatches the
        validated rows to the workers (:meth:`_run_rows`).  ``engine``
        may only name the engine the workers were built with.
        """
        if self._closed:
            raise RuntimeError("executor is closed")
        if engine is not None and engine != self._engine:
            raise ValueError(
                f"this pool runs engine {self._engine!r}, got {engine!r}")
        return _PoolPlan(self, hierarchy_threshold)

    def query_batch(self, queries: np.ndarray, k: int,
                    hierarchy_threshold: Union[str, int] = "median",
                    deadline_ms: Optional[float] = None,
                    deadline: Optional[Deadline] = None,
                    policy: Optional[ResiliencePolicy] = None,
                    max_batch_rows: Optional[int] = None,
                    ) -> Tuple[np.ndarray, np.ndarray, QueryStats]:
        """KNN over the worker pool; same contract as the in-process path.

        Thin adapter (rule R14): the options become a
        :class:`repro.runtime.QueryRequest` run by
        :func:`repro.runtime.execute_request` over
        :meth:`execution_plan`.

        ``max_batch_rows`` bounds rows per dispatched shard (``None``
        runs the batch as one shard); shards are dispatched in waves of
        ``n_workers`` so the whole pool computes concurrently.  Results
        are bit-identical to ``index.query_batch(queries, k, ...)``
        given an integer ``hierarchy_threshold`` (``"median"``
        re-derives the threshold per shard, exactly as the in-process
        sharded path does).  With a policy, worker death degrades the
        affected rows (retry on a fresh worker, then exact brute-force,
        then flagged padding) — the batch always returns.
        """
        from repro.runtime.session import QueryRequest, execute_request

        request = QueryRequest(queries=queries, k=k,
                               hierarchy_threshold=hierarchy_threshold,
                               deadline_ms=deadline_ms, deadline=deadline,
                               policy=policy, max_batch_rows=max_batch_rows)
        return execute_request(self, request).as_tuple()

    def _run_rows(self, ctx: ExecutionContext,
                  hierarchy_threshold: object) -> None:
        """Shard the context's validated all-finite rows over the pool.

        Dispatch is wave-pipelined: each wave sends one shard to every
        worker, then collects replies in shard order — at most one shard
        is in flight per worker, so a dying worker loses exactly the
        shard being supervised and the retry path stays simple.

        With observability on, every dispatched shard carries a
        :class:`~repro.obs.TraceContext`; the workers return their
        sampled trace dicts with each result and this method stitches
        them into parent :class:`~repro.obs.QueryTrace` records (parent
        validate/dispatch/collect spans + per-worker stage and kernel
        spans), then drains the shared-memory metrics segment so worker
        counters appear in the parent registry.
        """
        queries, k, nq = ctx.queries, ctx.k, ctx.nq
        deadline, pol, ob = ctx.deadline, ctx.policy, ctx.ob
        rows_per_shard = (nq if ctx.max_batch_rows is None
                          else ctx.max_batch_rows)
        shards = [(s, min(s + rows_per_shard, nq))
                  for s in range(0, nq, rows_per_shard)]
        self._batch_seq += 1
        batch_id = self._batch_seq
        # (row_start, shard_id, worker_meta, worker_trace_dict) tuples,
        # stitched after the final lap so parent spans are complete.
        pending_traces: List[Tuple[int, int, dict, dict]] = []
        for wave_start in range(0, len(shards), self.n_workers):
            wave = shards[wave_start:wave_start + self.n_workers]
            sent: List[bool] = [False] * len(wave)
            for slot, (start, stop) in enumerate(wave):
                if deadline is not None and deadline.expired():
                    continue  # collected as exhausted below
                try:
                    worker = self._ensure_worker(slot)
                    worker.conn.send(self._request(
                        wave_start + slot, queries[start:stop], k,
                        hierarchy_threshold, deadline,
                        self._make_tctx(ob, batch_id, wave_start + slot,
                                        slot)))
                    sent[slot] = True
                    if ob is not None:
                        ob.record_worker_inflight(slot, 1)
                except (WorkerCrashError, BrokenPipeError,
                        OSError) as error:
                    # Send-side failure: retire the worker and leave the
                    # shard for the supervised collect phase, which
                    # retries the full send+recv on a fresh process.
                    self._retire(slot)
                    if pol is None:
                        raise WorkerCrashError(
                            f"shard worker dispatch failed "
                            f"({type(error).__name__})") from error
                    ctx.failures.append(pol.note_failure(
                        self.SITE, f"shard={wave_start + slot}",
                        error, "retried"))
            ctx.timer.lap(f"{self.SITE}.dispatch")
            for slot, (start, stop) in enumerate(wave):
                shard_id = wave_start + slot
                if not sent[slot] and deadline is not None \
                        and deadline.expired():
                    # Budget spent before dispatch: padded best-effort
                    # rows, flagged exhausted — identical to run_shards.
                    ctx.ensure_exhausted()[start:stop] = True
                    if ob is not None:
                        ob.record_deadline_exhausted(
                            f"{self.SITE}.shard", stop - start)
                    continue
                result, shard_failures, shard_degraded = self._collect(
                    ctx, shard_id, slot, sent[slot], queries[start:stop],
                    hierarchy_threshold, batch_id)
                if ob is not None:
                    ob.record_worker_inflight(slot, 0)
                ctx.failures.extend(shard_failures)
                if shard_degraded or result is None:
                    ctx.ensure_degraded()[start:stop] = True
                    if ob is not None:
                        ob.record_degraded("worker_crash", stop - start)
                if result is None:
                    continue  # flagged padding stays in place
                s_ids, s_dists, s_cand, s_esc, s_exh, s_meta = result
                ctx.ids_out[start:stop] = s_ids
                ctx.dists_out[start:stop] = s_dists
                ctx.n_candidates[start:stop] = s_cand
                ctx.escalated[start:stop] = s_esc
                if deadline is not None and s_exh is not None:
                    ctx.ensure_exhausted()[start:stop] = s_exh
                if ob is not None and s_meta is not None:
                    for trace_dict in s_meta.get("traces", ()):
                        pending_traces.append((start, shard_id, s_meta,
                                               trace_dict))
            ctx.timer.lap(f"{self.SITE}.collect")
        if ob is not None:
            ob.record_shards(self.SITE, len(shards))
            self._stitch_traces(ob, ctx.timer, pending_traces)
            self.drain_metrics(ob)

    def _make_tctx(self, ob: Optional[obs.Observer], batch_id: int,
                   shard_id: int, widx: int) -> Optional[obs.TraceContext]:
        """The trace identity shipped with one shard send (None when
        observability is off — the worker then runs un-instrumented)."""
        if ob is None:
            return None
        return obs.TraceContext(
            batch_id=batch_id, shard_id=shard_id, worker_id=widx,
            sample_rate=ob.tracer.rate,
            trace_seed=batch_id * 1_000_003 + shard_id,
            sent_at=ob.clock())

    def _stitch_traces(self, ob: obs.Observer, timer: "obs.StageTimer",
                       pending: List[Tuple[int, int, dict, dict]]) -> None:
        """Fold worker-sampled trace dicts into parent QueryTrace records.

        The workers already applied the sampling decision (same rate,
        deterministic per-shard seed), so every pending trace is added
        directly — re-sampling here would square the rate.
        """
        stages = dict(timer.stages)
        for start, shard_id, meta, trace_dict in pending:
            ob.tracer.add(obs.QueryTrace(
                query_index=start + int(trace_dict.get("query_index", 0)),
                engine=f"process:{trace_dict.get('engine', self._engine)}",
                n_candidates=int(trace_dict.get("n_candidates", 0)),
                n_probes=int(trace_dict.get("n_probes", 0)),
                escalated=bool(trace_dict.get("escalated", False)),
                stages=stages,
                shard_id=shard_id,
                worker_id=int(meta.get("worker", -1)),
                worker_stages=dict(trace_dict.get("stages", {}))))

    def drain_metrics(self, ob: Optional[obs.Observer] = None) -> int:
        """Fold the workers' slot increments into the active registry.

        Called automatically after every batch and on :meth:`close`;
        public so long-lived callers (the stats endpoint, tests) can
        force a drain between batches.  Returns the number of cells that
        carried new increments (0 when the plane or obs is off).
        """
        if self._sink is None:
            return 0
        if ob is None:
            ob = obs.active()
        if ob is None:
            return 0
        updated = self._sink.drain_into(ob.registry)
        ob.record_shm_bytes("metrics", self._sink.nbytes)
        return updated

    def _request(self, shard_id: int, queries: np.ndarray, k: int,
                 hierarchy_threshold: object,
                 deadline: Optional[Deadline],
                 tctx: Optional[obs.TraceContext]) -> tuple:
        return ("query", shard_id, queries, k, hierarchy_threshold,
                None if deadline is None else deadline.budget_ms,
                None if deadline is None else deadline._expires_at,
                tctx)

    def _collect(self, ctx: ExecutionContext, shard_id: int, widx: int,
                 in_flight: bool, queries: np.ndarray,
                 hierarchy_threshold: object, batch_id: int,
                 ) -> Tuple[Optional[tuple], List[FailureRecord], bool]:
        """Await one shard's reply, supervising crashes.

        Returns ``(result_tuple_or_None, failure_records, degraded)``;
        ``degraded`` is True when a fallback (not the worker pool)
        produced the rows.  ``in_flight`` says whether the wave's send
        phase already dispatched this shard to worker ``widx``; retries
        re-send to a fresh worker themselves.
        """
        from repro.resilience.errors import InjectedFault

        k, deadline, pol = ctx.k, ctx.deadline, ctx.policy
        fault_plan = ctx.fault_plan
        state = {"in_flight": in_flight}

        def attempt() -> tuple:
            if fault_plan is not None:
                try:
                    fault_plan.check(self.SITE, shard=shard_id)
                except InjectedFault:
                    if state["in_flight"]:
                        # The worker still holds the request; retire it
                        # so its late reply cannot desync the pipe.
                        state["in_flight"] = False
                        self._retire(widx)
                    raise
            worker = self._ensure_worker(widx)
            try:
                if not state["in_flight"]:
                    worker.conn.send(self._request(
                        shard_id, queries, k, hierarchy_threshold,
                        deadline,
                        self._make_tctx(ctx.ob, batch_id, shard_id,
                                        widx)))
                state["in_flight"] = False
                msg = self._recv(worker)
            except WorkerCrashError:
                state["in_flight"] = False
                self._retire(widx)
                raise
            if msg[0] == "err":
                raise WorkerCrashError(
                    f"shard worker raised {msg[2]}: {msg[3]}")
            assert msg[0] == "ok" and msg[1] == shard_id
            return msg[2:]

        if pol is None:
            # Unsupervised contract: failures propagate (same as the
            # thread path).
            return attempt(), [], False

        def brute_force() -> tuple:
            ids, dists = self._index.brute_force_batch(queries, k)
            alive = self._live_points()
            nr = queries.shape[0]
            return (ids, dists, np.full(nr, alive, dtype=np.int64),
                    np.zeros(nr, dtype=bool), None, None)

        result, action, records = pol.run(
            self.SITE, f"shard={shard_id}", attempt,
            fallbacks=(("brute_force", brute_force),))
        ob = ctx.ob
        if ob is not None and action is not None:
            ob.record_worker_event(f"shard_{action.split(':', 1)[0]}")
        return result, list(records), action is not None and \
            action.startswith("fallback")

    def _live_points(self) -> int:
        deleted = self._index._deleted
        n = int(self._index._data.shape[0])
        return n - int(deleted.sum()) if deleted is not None else n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ProcessShardExecutor(n_workers={self.n_workers}, "
                f"engine={self._engine!r}, "
                f"segment={self._shm.name!r}, closed={self._closed})")


class _PoolPlan(QueryPlan):
    """The pool's staged plan: one stage dispatching row shards in waves.

    ``delegates_sharding`` hands ``max_batch_rows`` to the stage, which
    uses it as the shard size sent to each worker instead of having
    :func:`repro.exec.run_plan` slice the batch first.  No
    ``record_obs``: the workers record the batch counters and
    :meth:`ProcessShardExecutor.drain_metrics` folds them in.
    """

    site = ProcessShardExecutor.SITE
    delegates_sharding = True

    def __init__(self, executor: ProcessShardExecutor,
                 hierarchy_threshold: Union[str, int]) -> None:
        self.executor = executor
        self.hierarchy_threshold = hierarchy_threshold

    def validate(self, queries: object, k: int, *, allow_nonfinite: bool,
                 ) -> Tuple[np.ndarray, Optional[np.ndarray], int]:
        return self.executor._index._validate_query_batch(
            queries, k, allow_nonfinite)

    def stages(self) -> Tuple[Stage, ...]:
        # Untimed: the stage laps its own dispatch/collect spans per wave.
        return (Stage(f"{self.site}.shards", self._stage_shards,
                      timed=False),)

    def _stage_shards(self, ctx: ExecutionContext) -> None:
        self.executor._run_rows(ctx, self.hierarchy_threshold)
