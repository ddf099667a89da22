"""Process-lifetime index sessions: one object that owns an index plus
every cross-cutting attachment.

Before this package, each concern a server needs — execution engine,
deadline budget, resilience policy, batch sharding, the WAL/compactor
wiring from :mod:`repro.maintenance`, the obs registry, the process
shard pool — was threaded as per-call ``query_batch`` kwargs plus
stateful ``attach_*`` mutators duplicated across every front-end.  There
was no long-lived object a serving layer could hold.

This module provides that object and the request model under it:

- :class:`RuntimeConfig` — the resolved execution defaults for a
  process (engine, deadline, policy, ``max_batch_rows``, shard workers,
  micro-batch window), with :meth:`RuntimeConfig.from_args` as the one
  CLI argument-resolution seam shared by ``query``/``bench``/``serve``;
- :class:`QueryRequest` / :class:`QueryResponse` — dataclasses that
  replace the six-kwarg ``query_batch`` signatures.  The old signatures
  survive as thin adapters that build a request (rule R14 keeps them
  thin);
- :func:`execute_request` / :func:`execute_plan_request` — the one
  translation from a request to :func:`repro.exec.run_plan`;
- :class:`IndexRuntime` — owns an index and its attachments for process
  life and answers :meth:`IndexRuntime.submit` with a response.

Import discipline: this module sits *above* :mod:`repro.exec` and
*below* every front-end (``repro.lsh``, ``repro.core``,
``repro.evaluation`` import it), so it must never import a front-end
package at module scope — index construction and maintenance wiring use
duck typing and lazy imports.
"""

from __future__ import annotations

import argparse
import threading
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

import numpy as np

from repro.exec.context import QueryStats
from repro.exec.executor import run_plan
from repro.exec.plan import QueryPlan
from repro.resilience.deadline import Deadline
from repro.resilience.policy import ResiliencePolicy

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.maintenance import Compactor, DriftDetector, WriteAheadLog
    from repro.obs.registry import MetricsRegistry

__all__ = [
    "IndexRuntime",
    "QueryRequest",
    "QueryResponse",
    "RuntimeConfig",
    "RuntimeInfo",
    "execute_plan_request",
    "execute_request",
    "shed_response",
    "validate_engine",
]

Threshold = Union[str, int]


@dataclass(frozen=True)
class RuntimeConfig:
    """Resolved per-process execution defaults for an index session.

    Front-end ``query_batch`` adapters do not consult a config — their
    keyword defaults are the contract — but :class:`IndexRuntime`,
    the CLI and the serving layer resolve every option they do not
    receive explicitly from one of these, so ``repro-knn query``,
    ``bench`` and ``serve`` cannot drift apart
    (:meth:`RuntimeConfig.from_args` is the single parsing seam).

    Attributes
    ----------
    engine:
        Execution engine (``vectorized`` / ``scalar`` / ``native``), or
        ``None`` for each front-end's own default.
    hierarchy_threshold:
        Escalation threshold forwarded to hierarchical plans; ``None``
        keeps the front-end default (``"median"``).  Micro-batching
        requires an integer threshold on hierarchical indexes (the
        batch median is not batch-invariant); see
        :class:`repro.runtime.batching.MicroBatcher`.
    deadline_ms:
        Default wall-clock budget per request (``None`` = unbounded).
    policy:
        Default :class:`~repro.resilience.policy.ResiliencePolicy`
        (``None`` = the process-wide installed gate, as before).
    max_batch_rows:
        Default bounded-memory shard size.
    shard_workers:
        When positive, :class:`IndexRuntime` answers requests over a
        :class:`~repro.exec.process.ProcessShardExecutor` pool of this
        many worker processes (standard indexes, non-scalar engines).
    batch_window_ms / batch_max_rows:
        Micro-batching coalescing window for the serving layer: a
        leader request waits up to ``batch_window_ms`` for companions,
        and a merged batch is dispatched early once it holds
        ``batch_max_rows`` query rows.
    max_queue_depth:
        Admission bound for the serving layer: requests arriving while
        this many are already queued or executing are shed (flagged,
        never crashed) instead of growing the queue without bound.
    """

    engine: Optional[str] = None
    hierarchy_threshold: Optional[Threshold] = None
    deadline_ms: Optional[float] = None
    policy: Optional[ResiliencePolicy] = None
    max_batch_rows: Optional[int] = None
    shard_workers: int = 0
    batch_window_ms: float = 2.0
    batch_max_rows: int = 256
    max_queue_depth: int = 64

    def __post_init__(self) -> None:
        if self.engine is not None:
            validate_engine(self.engine)
        if self.deadline_ms is not None and not self.deadline_ms > 0:
            raise ValueError(
                f"deadline_ms must be positive, got {self.deadline_ms}")
        if self.max_batch_rows is not None and self.max_batch_rows <= 0:
            raise ValueError(
                f"max_batch_rows must be positive, got {self.max_batch_rows}")
        if self.shard_workers < 0:
            raise ValueError(
                f"shard_workers must be >= 0, got {self.shard_workers}")
        if not self.batch_window_ms >= 0:
            raise ValueError(
                f"batch_window_ms must be >= 0, got {self.batch_window_ms}")
        if self.batch_max_rows <= 0:
            raise ValueError(
                f"batch_max_rows must be positive, got {self.batch_max_rows}")
        if self.max_queue_depth <= 0:
            raise ValueError(
                f"max_queue_depth must be positive, got {self.max_queue_depth}")

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RuntimeConfig":
        """Resolve a config from parsed CLI arguments.

        The one place ``--engine`` / ``--deadline-ms`` / ``--resilient``
        / ``--max-batch-rows`` / ``--shard-workers`` (and the serving
        knobs) are interpreted, shared by ``cmd_query``, ``cmd_bench``
        and ``cmd_serve`` so their defaults cannot diverge.  Missing
        attributes fall back to the dataclass defaults, so one parser
        does not need every flag.  Raises :class:`ValueError` for an
        unknown engine (callers map it to exit code 2).
        """
        policy: Optional[ResiliencePolicy] = None
        if getattr(args, "resilient", False):
            policy = ResiliencePolicy()
        return cls(
            engine=getattr(args, "engine", None),
            hierarchy_threshold=getattr(args, "hierarchy_threshold", None),
            deadline_ms=getattr(args, "deadline_ms", None),
            policy=policy,
            max_batch_rows=getattr(args, "max_batch_rows", None),
            shard_workers=int(getattr(args, "shard_workers", 0) or 0),
            batch_window_ms=float(getattr(args, "batch_window_ms", 2.0)),
            batch_max_rows=int(getattr(args, "batch_max_rows", 256)),
            max_queue_depth=int(getattr(args, "max_queue_depth", 64)),
        )


def validate_engine(engine: str) -> str:
    """Check ``engine`` against the registered engine set; return it.

    Raises :class:`ValueError` with the full valid-engine listing —
    the message the CLI used to assemble by hand in two places.
    """
    from repro.native.registry import REGISTERED_ENGINES

    if engine not in REGISTERED_ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; valid engines: "
            f"{', '.join(REGISTERED_ENGINES)}")
    return engine


@dataclass(frozen=True)
class QueryRequest:
    """One KNN request: the query rows plus every execution option.

    Replaces the six-kwarg ``query_batch`` signatures as the unit the
    runtime layer passes around; ``None`` fields mean "resolve from the
    session's :class:`RuntimeConfig`" (and, failing that, the
    front-end's historical default).  ``deadline`` holds an already
    materialized absolute expiry — the serving layer stamps one from
    ``deadline_ms`` at arrival so queue wait counts against the budget.
    """

    queries: np.ndarray
    k: int
    engine: Optional[str] = None
    hierarchy_threshold: Optional[Threshold] = None
    deadline_ms: Optional[float] = None
    deadline: Optional[Deadline] = None
    policy: Optional[ResiliencePolicy] = None
    max_batch_rows: Optional[int] = None

    def with_deadline_started(self) -> "QueryRequest":
        """Materialize ``deadline_ms`` into an absolute expiry now.

        Idempotent: a request already carrying a ``deadline`` object is
        returned unchanged, as is one with no budget at all.
        """
        if self.deadline is not None or self.deadline_ms is None:
            return self
        return replace(self, deadline=Deadline(self.deadline_ms),
                       deadline_ms=None)

    def n_rows(self) -> int:
        return int(np.shape(self.queries)[0])


@dataclass(frozen=True)
class QueryResponse:
    """The answer to one :class:`QueryRequest`.

    ``ids``/``distances`` are the padded ``(q, k)`` result matrices and
    ``stats`` the per-query :class:`~repro.exec.context.QueryStats`,
    exactly as the tuple-returning ``query_batch`` contract.  ``shed``
    marks a request the admission controller refused under overload (or
    one whose deadline had already expired on arrival): the response is
    well-formed padding with ``stats.exhausted_budget`` all-True, the
    existing degraded-semantics answer to "could not do the work in
    budget".  ``batched`` records how many requests shared the executed
    micro-batch (1 = solo), for telemetry only.
    """

    ids: np.ndarray
    distances: np.ndarray
    stats: QueryStats
    shed: bool = False
    batched: int = 1

    def as_tuple(self) -> Tuple[np.ndarray, np.ndarray, QueryStats]:
        """The historical ``query_batch`` return triple."""
        return self.ids, self.distances, self.stats


def shed_response(request: QueryRequest, reason: str = "overload",
                  ) -> QueryResponse:
    """A padded, flagged response for a request that was not executed.

    Reuses the executor's degraded-output conventions: ``-1`` ids,
    ``inf`` distances, zero candidates, ``exhausted_budget`` all-True —
    the same shape a fully deadline-expired batch returns, so clients
    and metrics need no new vocabulary for shed load.
    """
    nq, k = request.n_rows(), int(request.k)
    stats = QueryStats(
        n_candidates=np.zeros(nq, dtype=np.int64),
        escalated=np.zeros(nq, dtype=bool),
        exhausted_budget=np.ones(nq, dtype=bool))
    del reason  # carried by serving-layer telemetry, not the stats
    return QueryResponse(
        ids=np.full((nq, k), -1, dtype=np.int64),
        distances=np.full((nq, k), np.inf, dtype=np.float64),
        stats=stats, shed=True)


def execute_plan_request(plan: QueryPlan, request: QueryRequest,
                         ) -> QueryResponse:
    """Run ``request`` through an explicit plan via the shared executor.

    The one translation from the request model to
    :func:`repro.exec.run_plan` — every field maps one-to-one, so a
    thin-adapter ``query_batch`` built on this returns bit-identical
    results to the pre-runtime code path.
    """
    ids, dists, stats = run_plan(
        plan, request.queries, request.k,
        deadline_ms=request.deadline_ms, deadline=request.deadline,
        policy=request.policy, max_batch_rows=request.max_batch_rows)
    return QueryResponse(ids=ids, distances=dists, stats=stats)


def execute_request(index: object, request: QueryRequest,
                    config: Optional[RuntimeConfig] = None,
                    ) -> QueryResponse:
    """Resolve ``request`` against ``config`` and execute it on ``index``.

    ``index`` must expose ``execution_plan(engine, hierarchy_threshold)``
    (every in-repo front-end and the process shard pool do).  Request
    fields win over config fields; unset both fall back to the
    front-end defaults the plan builder owns (engine ``"vectorized"``,
    threshold ``"median"``).
    """
    cfg = config if config is not None else _DEFAULT_CONFIG
    engine = request.engine if request.engine is not None else cfg.engine
    threshold = (request.hierarchy_threshold
                 if request.hierarchy_threshold is not None
                 else cfg.hierarchy_threshold)
    plan_builder = getattr(index, "execution_plan")
    kwargs: Dict[str, object] = {}
    if engine is not None:
        kwargs["engine"] = engine
    if threshold is not None:
        kwargs["hierarchy_threshold"] = threshold
    plan = plan_builder(**kwargs)
    resolved = request
    if request.deadline is None and request.deadline_ms is None \
            and cfg.deadline_ms is not None:
        resolved = replace(resolved, deadline_ms=cfg.deadline_ms)
    if request.policy is None and cfg.policy is not None:
        resolved = replace(resolved, policy=cfg.policy)
    if request.max_batch_rows is None and cfg.max_batch_rows is not None:
        resolved = replace(resolved, max_batch_rows=cfg.max_batch_rows)
    return execute_plan_request(plan, resolved)


_DEFAULT_CONFIG = RuntimeConfig()


@dataclass
class RuntimeInfo:
    """Introspection snapshot served by ``/readyz`` and ``repro-knn serve``."""

    ready: bool
    n_points: int
    engine: Optional[str]
    shard_workers: int
    worker_pids: Tuple[int, ...]
    wal_attached: bool
    compactor_attached: bool
    applied_lsn: int
    closed: bool
    detail: str = ""
    executor_stale: bool = False

    def to_dict(self) -> Dict[str, object]:
        return {
            "ready": self.ready, "n_points": self.n_points,
            "engine": self.engine, "shard_workers": self.shard_workers,
            "worker_pids": list(self.worker_pids),
            "wal_attached": self.wal_attached,
            "compactor_attached": self.compactor_attached,
            "applied_lsn": self.applied_lsn, "closed": self.closed,
            "detail": self.detail,
            "executor_stale": self.executor_stale,
        }


class IndexRuntime:
    """An index plus its attachments, owned for the life of a process.

    One construction site replaces the per-call-site wiring the CLI and
    tests used to repeat: WAL attachment (durable acknowledged writes
    while serving), background compactor, drift detector, the process
    shard pool, and the obs registry all live here, and queries enter
    through one door — :meth:`submit`.

    The runtime does not *replace* the index API: reads delegate to the
    shared executor exactly as ``index.query_batch`` does (and return
    bit-identical results); writes delegate to ``index.insert`` /
    ``index.delete`` whose WAL append-before-ack discipline (R13) is
    unchanged.  What it adds is lifecycle: everything attached here is
    detached/closed by :meth:`close`, in reverse order.
    """

    def __init__(self, index: object,
                 config: Optional[RuntimeConfig] = None, *,
                 registry: "Optional[MetricsRegistry]" = None) -> None:
        self.index = index
        self.config = config if config is not None else RuntimeConfig()
        self.registry = registry
        self._wal: "Optional[WriteAheadLog]" = None
        self._compactor: "Optional[Compactor]" = None
        self._drift: "Optional[DriftDetector]" = None
        self._executor: Optional[object] = None
        # The pool workers hold a frozen shared-memory snapshot taken at
        # pool construction; live inserts/deletes mutate only the parent
        # index, so the first write flips this flag and submit() bypasses
        # the pool (read-your-writes) until refresh_executor() rebuilds
        # the snapshot.  The lock serializes pool dispatch (the worker
        # pipes are a serial protocol) and orders flag flips against it.
        self._executor_stale = False
        self._executor_lock = threading.Lock()
        #: WAL replay report from :meth:`open` (None for direct loads).
        self.recovery_report: Optional[object] = None
        self._closed = False
        if self.config.engine is not None:
            validate_engine(self.config.engine)
        if self.config.shard_workers > 0:
            self._executor = self._make_executor()

    # ------------------------------------------------------------ lifecycle

    def _make_executor(self) -> object:
        from repro.exec.process import ProcessShardExecutor
        from repro.lsh.index import StandardLSH

        if not isinstance(self.index, StandardLSH):
            raise ValueError(
                "shard_workers requires a standard index "
                "(build with --index-type standard)")
        engine = self.config.engine or "vectorized"
        if engine == "scalar":
            raise ValueError(
                "shard_workers supports engines 'vectorized' and 'native'")
        return ProcessShardExecutor(
            self.index, n_workers=self.config.shard_workers, engine=engine)

    def attach_maintenance(self, wal: "Optional[WriteAheadLog]" = None,
                           compactor: "Optional[Compactor]" = None,
                           drift: "Optional[DriftDetector]" = None) -> None:
        """Wire the durability plane into the owned index.

        The single sanctioned ``attach_*`` call site outside tests (rule
        R14): every front-end used to be attached ad hoc wherever a WAL
        happened to be opened.  Attachment order matters — the WAL first
        (so a compaction-triggering insert is already logged), then the
        compactor, then the drift detector that feeds it.
        """
        if wal is not None:
            self.index.attach_wal(wal)  # type: ignore[attr-defined]
            self._wal = wal
        if compactor is not None:
            self.index.attach_compactor(compactor)  # type: ignore[attr-defined]
            self._compactor = compactor
        if drift is not None:
            self._drift = drift

    @classmethod
    def open(cls, index_path: str, config: Optional[RuntimeConfig] = None, *,
             wal_path: Optional[str] = None, compact_async: bool = False,
             registry: "Optional[MetricsRegistry]" = None,
             ) -> "IndexRuntime":
        """Load a saved index and stand up a serving-ready runtime.

        With ``wal_path`` the index is *recovered* (snapshot + WAL-tail
        replay, LSN-idempotent) before the same WAL is re-attached for
        live writes — the crash-consistent boot sequence ``repro-knn
        serve`` uses.  ``compact_async=True`` additionally starts a
        background :class:`~repro.maintenance.compactor.Compactor` so
        overlay debt from live inserts never stalls the writer.
        """
        report: Optional[object] = None
        if wal_path is not None:
            from repro.maintenance import WriteAheadLog, recover_index

            index, report = recover_index(index_path, wal_path)
            wal: "Optional[WriteAheadLog]" = WriteAheadLog(wal_path)
        else:
            from repro.persistence import load_index

            index = load_index(index_path)
            wal = None
        runtime = cls(index, config, registry=registry)
        runtime.recovery_report = report
        compactor: "Optional[Compactor]" = None
        if compact_async:
            from repro.maintenance import Compactor

            compactor = Compactor()
        if wal is not None or compactor is not None:
            runtime.attach_maintenance(wal=wal, compactor=compactor)
        return runtime

    def close(self) -> None:
        """Release every attachment (idempotent), newest first."""
        if self._closed:
            return
        self._closed = True
        with self._executor_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.close()  # type: ignore[attr-defined]
        compactor, self._compactor = self._compactor, None
        if compactor is not None:
            compactor.close()
        wal, self._wal = self._wal, None
        if wal is not None:
            wal.close()

    def __enter__(self) -> "IndexRuntime":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    # ------------------------------------------------------------- querying

    def submit(self, request: QueryRequest) -> QueryResponse:
        """Answer one request; the runtime's single query entry.

        Requests route to the process shard pool when one is attached,
        its snapshot is current, and the request does not pin an engine
        other than the pool's; everything else runs through the
        in-process executor.  Results are bit-identical between the two
        paths given an integer ``hierarchy_threshold`` — the process
        pool's documented contract.  After a live :meth:`insert` /
        :meth:`delete` the pool snapshot is stale, so requests run
        in-process (correct, read-your-writes answers at reduced
        throughput) until :meth:`refresh_executor` re-arms the pool.
        """
        if self._closed:
            raise RuntimeError("runtime is closed")
        request = request.with_deadline_started()
        if self._executor is not None and (
                request.engine is None
                or request.engine == self._pool_engine()):
            with self._executor_lock:
                # Re-checked under the lock: a writer may have flipped
                # the stale flag between the fast check and here.
                if self._executor is not None and not self._executor_stale:
                    return execute_request(self._executor, request,
                                           self.config)
        return execute_request(self.index, request, self.config)

    def _pool_engine(self) -> str:
        """The engine the shard pool workers were built with."""
        return self.config.engine or "vectorized"

    def query_batch(self, queries: np.ndarray, k: int,
                    **options: object) -> Tuple[np.ndarray, np.ndarray,
                                                QueryStats]:
        """Convenience adapter: keyword options to a request, tuple out."""
        request = QueryRequest(queries=queries, k=int(k),
                               **options)  # type: ignore[arg-type]
        return self.submit(request).as_tuple()

    # ------------------------------------------------------------- mutation

    def insert(self, points: np.ndarray,
               ids: Optional[np.ndarray] = None) -> np.ndarray:
        """Durable insert: WAL append-before-ack via the owned index."""
        if self._closed:
            raise RuntimeError("runtime is closed")
        assigned = self.index.insert(points, ids)  # type: ignore[attr-defined]
        self._mark_executor_stale()
        return assigned

    def delete(self, ids: np.ndarray) -> int:
        """Durable delete via the owned index."""
        if self._closed:
            raise RuntimeError("runtime is closed")
        removed = self.index.delete(ids)  # type: ignore[attr-defined]
        self._mark_executor_stale()
        return removed

    def _mark_executor_stale(self) -> None:
        """Invalidate the pool snapshot before the write is acknowledged.

        Taking the dispatch lock orders the flip after any pool batch in
        flight: a query submitted after this write returns can never be
        answered from the pre-write snapshot.
        """
        if self._executor is None:
            return
        with self._executor_lock:
            self._executor_stale = True

    def refresh_executor(self) -> bool:
        """Rebuild the shard pool snapshot from the current index state.

        Live writes freeze the pool out (see :meth:`submit`); this
        re-materializes the shared-memory segment and respawns the
        workers over it — the only way mutated CSR layouts can reach
        them — and re-arms pool routing.  Returns ``True`` when a fresh
        pool is attached after the call, ``False`` when the runtime was
        configured without shard workers.  :meth:`checkpoint` calls this
        automatically, so the durability cycle doubles as the natural
        re-arm point for a serving process.
        """
        if self._closed:
            raise RuntimeError("runtime is closed")
        if self.config.shard_workers <= 0:
            return False
        with self._executor_lock:
            if self._executor is not None and not self._executor_stale:
                return True
            old, self._executor = self._executor, None
            if old is not None:
                old.close()  # type: ignore[attr-defined]
            self._executor = self._make_executor()
            self._executor_stale = False
        return True

    def checkpoint(self, path: str) -> int:
        """Snapshot + truncate the covered WAL prefix; returns the LSN.

        Also re-arms a stale shard pool: the checkpoint has just folded
        every live write into durable state, making it the cheapest
        moment to rebuild the pool's frozen snapshot too.
        """
        from repro.maintenance import checkpoint

        lsn = checkpoint(self.index, self._wal, path)
        if self._executor is not None and self._executor_stale:
            self.refresh_executor()
        return lsn

    # -------------------------------------------------------- introspection

    @property
    def wal(self) -> "Optional[WriteAheadLog]":
        return self._wal

    @property
    def compactor(self) -> "Optional[Compactor]":
        return self._compactor

    @property
    def hierarchy_sensitive(self) -> bool:
        """True when plan output depends on the batch-median threshold.

        A hierarchical index escalates by comparing short-list sizes to
        a threshold that, under the default ``"median"``, is derived
        from the executed batch — so merging requests would change
        results.  The micro-batcher executes such requests solo unless
        an integer threshold is configured.
        """
        threshold = self.config.hierarchy_threshold
        if threshold is not None and not isinstance(threshold, str):
            return False
        index = self.index
        if getattr(index, "use_hierarchy", False):
            return True
        config = getattr(index, "config", None)
        return bool(getattr(config, "hierarchy", False))

    def ready(self) -> bool:
        """Liveness of every owned moving part (the ``/readyz`` answer)."""
        return self.info().ready

    def info(self) -> RuntimeInfo:
        """One structured snapshot of runtime health."""
        index = self.index
        try:
            n_points = int(getattr(index, "n_points", 0))
        except RuntimeError:
            n_points = 0
        detail = ""
        ready = not self._closed
        if n_points <= 0:
            ready, detail = False, "index empty or not fitted"
        worker_pids: Tuple[int, ...] = ()
        executor_stale = False
        if self._executor is not None:
            pids = self._executor.worker_pids()  # type: ignore[attr-defined]
            worker_pids = tuple(int(p) for p in pids)
            executor_stale = self._executor_stale
            if executor_stale and not detail:
                # Still ready: requests are answered in-process with
                # read-your-writes results, just without the pool.
                detail = ("shard pool snapshot stale after live writes; "
                          "serving in-process until refresh_executor()")
        if self._compactor is not None and ready \
                and not self._compactor.is_alive():
            ready, detail = False, "compactor thread dead"
        return RuntimeInfo(
            ready=ready, n_points=n_points, engine=self.config.engine,
            shard_workers=self.config.shard_workers,
            worker_pids=worker_pids,
            wal_attached=self._wal is not None,
            compactor_attached=self._compactor is not None,
            applied_lsn=int(getattr(index, "_applied_lsn", 0)),
            closed=self._closed, detail=detail,
            executor_stale=executor_stale)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"IndexRuntime({type(self.index).__name__}, "
                f"engine={self.config.engine!r}, "
                f"shard_workers={self.config.shard_workers}, "
                f"wal={'on' if self._wal is not None else 'off'})")

