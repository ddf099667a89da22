"""Span tracing from outside the program, and the per-layer metrics.

:class:`Tracer` replaces public entry points of each layer with thin
wrappers that record ``(id, name, start, end, parent, thread, size,
phase)`` tuples in memory; :meth:`Tracer.uninstall` puts the originals
back.  Nothing under ``src/`` is edited: the wrappers are installed in
the benchmark process (in-process workloads) or by
``serve_traced.py`` inside the server process (``serve``).

Spans use ``time.perf_counter`` (``CLOCK_MONOTONIC`` on Linux), so the
client's request times and the server's spans share one clock.
"""

from __future__ import annotations

import bisect
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Layer entry points: (module, class or None, attribute, span name,
#: extra modules that imported the function by name).
TARGETS: Tuple[Tuple[str, Optional[str], str, str, Tuple[str, ...]], ...] = (
    ("repro.runtime.batching", "MicroBatcher", "submit", "batcher.submit", ()),
    ("repro.runtime.session", "IndexRuntime", "submit", "runtime.submit", ()),
    ("repro.runtime.session", None, "execute_request",
     "runtime.execute_request", ("repro.core.bilevel", "repro.lsh.index")),
    ("repro.exec.executor", None, "run_plan", "exec.run_plan",
     ("repro.runtime.session",)),
    ("repro.exec.executor", None, "run_shards", "exec.run_shards",
     ("repro.core.bilevel",)),
    ("repro.rptree.tree", "RPTree", "assign", "bilevel.route", ()),
    ("repro.core.bilevel", "_BiLevelPlan", "_stage_dispatch",
     "bilevel.dispatch", ()),
    ("repro.lsh.index", "_VectorPlan", "_stage_hash", "lsh.hash", ()),
    ("repro.lsh.index", "_NativePlan", "_stage_hash", "lsh.hash", ()),
    ("repro.lsh.index", "_VectorPlan", "_stage_gather", "lsh.gather", ()),
    ("repro.lsh.index", "_VectorPlan", "_stage_escalate", "lsh.escalate", ()),
    ("repro.lsh.index", "_VectorPlan", "_stage_rank", "lsh.rank", ()),
    ("repro.lsh.functions", "PStableHashFamily", "project", "lsh.project", ()),
    ("repro.lattice.zm", "ZMLattice", "quantize", "lattice.quantize", ()),
    ("repro.lattice.e8", "E8Lattice", "quantize", "lattice.quantize", ()),
    ("repro.lattice.e8", None, "decode_e8", "lattice.decode_e8", ()),
    ("repro.lattice.zm", "ZMLattice", "probe_codes", "lattice.probe", ()),
    ("repro.lattice.e8", "E8Lattice", "probe_codes", "lattice.probe", ()),
    ("repro.lsh.multiprobe", None, "query_directed_probes", "multiprobe", ()),
    ("repro.hierarchy.morton", "MortonHierarchy", "candidates",
     "hierarchy.morton", ()),
    ("repro.hierarchy.e8_hierarchy", "E8Hierarchy", "candidates",
     "hierarchy.e8", ()),
    ("repro.lsh.index", "StandardLSH", "_build_hierarchy",
     "hierarchy.build", ()),
    ("repro.native.kernels_cext", "CExtKernels", "lookup_codes",
     "native.lookup_codes", ()),
    ("repro.native.kernels_cext", "CExtKernels", "dedup_candidates",
     "native.dedup_candidates", ()),
    ("repro.native.kernels_cext", "CExtKernels", "rank_topk",
     "native.rank_topk", ()),
    ("repro.native.kernels_cext", "CExtKernels", "e8_decode",
     "native.e8_decode", ()),
    ("repro.rptree.tree", "RPTree", "fit", "setup.rptree", ()),
    ("repro.lsh.index", "StandardLSH", "fit", "setup.tables", ()),
    ("repro.maintenance", None, "recover_index", "setup.load", ()),
    ("repro.runtime.server", None, "serialize_response", "http.encode", ()),
    ("repro.maintenance.wal", "WriteAheadLog", "_append", "wal.append", ()),
    ("repro.maintenance.compactor", "Compactor", "_execute",
     "compactor.execute", ()),
)

NATIVE_KERNELS = ("lookup_codes", "dedup_candidates", "rank_topk",
                  "e8_decode")

#: Span tuple layout.
SID, NAME, START, END, PARENT, THREAD, SIZE, PHASE = range(8)


def _request_rows(args: tuple) -> int:
    return int(args[1].n_rows())


SIZE_FNS: Dict[str, Callable[[tuple], int]] = {
    "runtime.submit": _request_rows,
    "batcher.submit": _request_rows,
}


class Tracer:
    """In-memory span recorder over monkey-patched layer entry points."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.phase = "setup"
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrapper(self, fn: Callable, name: str) -> Callable:
        size_fn = SIZE_FNS.get(name)
        spans = self.spans

        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent,
                              threading.get_ident(),
                              size_fn(args) if size_fn else 0, self.phase))

        return traced

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        for module_name, cls_name, attr, name, aliases in TARGETS:
            module = importlib.import_module(module_name)
            if cls_name is None:
                wrapped = self._wrapper(getattr(module, attr), name)
                for owner_name in (module_name,) + aliases:
                    self._patch(importlib.import_module(owner_name), attr,
                                wrapped)
                continue
            owner = getattr(module, cls_name)
            self._patch(owner, attr, self._wrapper(owner.__dict__[attr], name))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: str, extra: Optional[Dict[str, object]] = None,
             ) -> None:
        """Write every span (and ``extra``) as JSON."""
        payload = {"fields": ["id", "name", "start", "end", "parent",
                              "thread", "size", "phase"],
                   "spans": self.spans}
        payload.update(extra or {})
        with open(path, "w") as fh:
            json.dump(payload, fh)


class Summary:
    """Per-name call count, total time and self time of a span set."""

    def __init__(self, spans: Iterable[tuple]) -> None:
        spans = list(spans)
        child_time: Dict[int, float] = defaultdict(float)
        for span in spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        self.calls: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.size: Dict[str, int] = defaultdict(int)
        self.root_time = 0.0
        for span in spans:
            duration = span[END] - span[START]
            name = span[NAME]
            self.calls[name] += 1
            self.total[name] += duration
            self.self_time[name] += duration - child_time.get(span[SID], 0.0)
            self.size[name] += span[SIZE]
            if span[PARENT] < 0:
                self.root_time += duration

    def ms(self, name: str, per: float, self_only: bool = False) -> float:
        """Milliseconds spent in ``name`` per unit of ``per``."""
        table = self.self_time if self_only else self.total
        return table.get(name, 0.0) * 1e3 / per if per else 0.0

    def calls_per(self, name: str, per: float) -> float:
        return self.calls.get(name, 0) / per if per else 0.0


def counter_total(snapshot: Dict[str, object], name: str) -> float:
    """Sum of a counter family over all labels in a registry snapshot."""
    family = snapshot.get(name)
    if not isinstance(family, dict):
        return 0.0
    return float(sum(s.get("value", 0.0) for s in family.get("samples", [])))


def batcher_wait_ms(spans: List[tuple]) -> float:
    """Mean time a ``MicroBatcher.submit`` spent outside the execution.

    A leader runs its ``IndexRuntime.submit`` as a child; a rider joins
    one on the leader's thread.  Either way the joined execution is the
    latest-ending ``runtime.submit`` span inside the submit's interval.
    """
    submits = [s for s in spans if s[NAME] == "batcher.submit"]
    execs = sorted((s for s in spans if s[NAME] == "runtime.submit"),
                   key=lambda s: s[START])
    if not submits:
        return 0.0
    starts = [e[START] for e in execs]
    waits = []
    for span in submits:
        run, last_end = 0.0, float("-inf")
        i = bisect.bisect_left(starts, span[START])
        while i < len(execs) and execs[i][START] <= span[END]:
            e = execs[i]
            if last_end < e[END] <= span[END]:
                run, last_end = e[END] - e[START], e[END]
            i += 1
        waits.append(span[END] - span[START] - run)
    return 1e3 * sum(waits) / len(waits)


def span_metrics(query: Summary, setup: Summary, requests: int, rows: int,
                 fits: int) -> Dict[str, float]:
    """The span-derived per-layer metrics of one traced run.

    ``*_ms`` layer times are mean milliseconds per request (one
    ``query_batch`` call in-process, one ``/query`` on ``serve``), so the
    layers of one workload add up against its request latency.
    """
    out = {
        "runtime.submit_self_ms": (
            query.ms("runtime.submit", requests, self_only=True)
            + query.ms("runtime.execute_request", requests, self_only=True)),
        "exec.run_plan_self_ms": query.ms("exec.run_plan", requests, True),
        "exec.run_plan_calls_per_request": query.calls_per("exec.run_plan",
                                                           requests),
        "bilevel.route_ms": query.ms("bilevel.route", requests),
        "bilevel.groups_per_batch": (
            query.calls.get("exec.run_shards", 0)
            / max(query.calls.get("bilevel.dispatch", 0), 1)),
        "bilevel.dispatch_self_ms": query.ms("bilevel.dispatch", requests,
                                             self_only=True),
        "lsh.hash_ms": query.ms("lsh.hash", requests),
        "lsh.hash_calls_per_query": (
            query.calls_per("lsh.project", rows)
            + query.calls_per("lattice.quantize", rows)
            + query.calls_per("native.e8_decode", rows)),
        "lsh.gather_ms": query.ms("lsh.gather", requests),
        "lsh.rank_ms": query.ms("lsh.rank", requests),
        "multiprobe.ms": query.ms("multiprobe", requests),
        "lattice.decode_ms": (
            query.ms("lattice.quantize", requests, self_only=True)
            + query.ms("lattice.decode_e8", requests, self_only=True)
            + query.ms("native.e8_decode", requests)),
        "lattice.probe_ms": query.ms("lattice.probe", requests,
                                     self_only=True),
        "hierarchy.morton_ms": query.ms("hierarchy.morton", requests),
        "hierarchy.e8_ms": query.ms("hierarchy.e8", requests),
        "hierarchy.build_ms": setup.ms("hierarchy.build", fits),
        "native.calls_per_query": sum(
            query.calls_per(f"native.{k}", rows) for k in NATIVE_KERNELS),
        "http.encode_ms": query.ms("http.encode", requests),
        "setup.rptree_ms": setup.ms("setup.rptree", fits),
        "setup.tables_ms": setup.ms("setup.tables", fits),
        "setup.load_ms": setup.ms("setup.load", fits),
    }
    for kernel in NATIVE_KERNELS:
        out[f"native.{kernel}_ms"] = query.ms(f"native.{kernel}", requests)
        out[f"native.{kernel}_calls"] = query.calls_per(f"native.{kernel}",
                                                        requests)
    return out


def counter_metrics(snapshot: Dict[str, object], rows: int,
                    ) -> Dict[str, float]:
    """Per-layer metrics read from the program's own obs counters."""
    lookups = counter_total(snapshot, "repro_bucket_lookups_total")
    misses = counter_total(snapshot, "repro_bucket_misses_total")
    appends = counter_total(snapshot, "repro_wal_appends_total")
    return {
        "lsh.bucket_lookups_per_query": lookups / rows if rows else 0.0,
        "lsh.bucket_hit_frac": 1.0 - misses / lookups if lookups else 0.0,
        "multiprobe.probes_per_query": (
            counter_total(snapshot, "repro_probes_total") / rows
            if rows else 0.0),
        "wal.fsyncs_per_write": (
            counter_total(snapshot, "repro_wal_fsyncs_total") / appends
            if appends else 0.0),
        "wal.bytes_per_write": (
            counter_total(snapshot, "repro_wal_bytes_total") / appends
            if appends else 0.0),
        "compactor.runs": counter_total(snapshot, "repro_compactions_total"),
    }


#: Every per-layer metric with its unit, in report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("http.self_ms", "ms"), ("http.encode_ms", "ms"),
    ("http.conns_per_request", "count"),
    ("admission.shed", "count"), ("admission.depth_max", "count"),
    ("batcher.wait_ms", "ms"), ("batcher.rows_per_exec", "rows"),
    ("runtime.submit_self_ms", "ms"),
    ("exec.run_plan_self_ms", "ms"),
    ("exec.run_plan_calls_per_request", "count"),
    ("bilevel.route_ms", "ms"), ("bilevel.groups_per_batch", "count"),
    ("bilevel.dispatch_self_ms", "ms"),
    ("lsh.hash_ms", "ms"), ("lsh.hash_calls_per_query", "count"),
    ("lsh.gather_ms", "ms"), ("lsh.bucket_lookups_per_query", "count"),
    ("lsh.bucket_hit_frac", "frac"),
    ("lsh.rank_ms", "ms"), ("lsh.candidates_per_query", "count"),
    ("lsh.candidate_yield", "frac"),
    ("multiprobe.ms", "ms"), ("multiprobe.probes_per_query", "count"),
    ("multiprobe.hit_frac", "frac"),
    ("lattice.decode_ms", "ms"), ("lattice.probe_ms", "ms"),
    ("hierarchy.morton_ms", "ms"), ("hierarchy.e8_ms", "ms"),
    ("hierarchy.escalated_frac", "frac"), ("hierarchy.build_ms", "ms"),
    ("native.lookup_codes_ms", "ms"), ("native.lookup_codes_calls", "count"),
    ("native.dedup_candidates_ms", "ms"),
    ("native.dedup_candidates_calls", "count"),
    ("native.rank_topk_ms", "ms"), ("native.rank_topk_calls", "count"),
    ("native.e8_decode_ms", "ms"), ("native.e8_decode_calls", "count"),
    ("native.calls_per_query", "count"),
    ("wal.append_ms", "ms"), ("wal.fsyncs_per_write", "count"),
    ("wal.bytes_per_write", "bytes"),
    ("compactor.runs", "count"), ("compactor.busy_ms", "ms"),
    ("setup.rptree_ms", "ms"), ("setup.tables_ms", "ms"),
    ("setup.load_ms", "ms"),
    ("client.lateness_p50_ms", "ms"), ("client.lateness_p99_ms", "ms"),
    ("client.cpu_frac", "frac"),
    ("open.sent", "count"), ("open.answered", "count"),
    ("open.failed", "count"), ("open.refused", "count"),
    ("closed.sent", "count"), ("closed.answered", "count"),
    ("closed.failed", "count"), ("closed.refused", "count"),
    ("ops.query_failed", "count"), ("ops.insert_failed", "count"),
    ("ops.delete_failed", "count"), ("ops.failed_frac", "frac"),
    ("trace.coverage", "frac"), ("trace.overhead_frac", "frac"),
)
