"""The ``serve`` workload: ``repro-knn serve`` over real HTTP, with writes.

The ``batch`` index (same data, same configuration) is fitted, saved and
served by a ``repro-knn serve --wal --compact-async --engine native``
subprocess.  One client process (this one), on one asyncio thread, then
sends

1. an **open loop**: a Poisson arrival schedule at the fixed ``RATE``
   with 90 % one-row ``/query``, 5 % one-row ``/insert`` of held-out
   points and 5 % one-row ``/delete`` of seed-chosen base ids, each
   request on its own connection at its due time.  Every request is
   timed from the moment it was due;
2. a **closed loop**: ``CLIENT_CONNECTIONS`` senders, each sending its
   next one-row ``/query`` when its previous answer arrives, until a
   fixed number of requests has been answered.

The two loops alternate in ``ROUNDS`` slices each, after untimed
warm-up queries.  Both use one client path, :func:`_timed`.  Every
request a run sends is fixed by the seed and ``--seconds``, so two runs
of one seed attempt, and fail, the same operations.  Timings are scaled
to the host's uncontended speed by :func:`common.host_slowdown`,
measured between slices and around each server spawn; the wall times
stay in the details line.

``RATE`` is an absolute number, under half of the closed-loop capacity
measured for seed 1 on a 2-core host; it is never re-calibrated, so a
faster or slower server shows as lower or higher latency at one load.
At 60 % of capacity, queueing amplified every slow stretch of the host
and the open-loop percentiles spread beyond the benchmark's bounds.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import os
import resource
import select
import shutil
import signal
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from common import (BATCH, BUILD_DIR, K, ROOT, Spec, bilevel_config,
                    check_answers, exact_knn, host_slowdown, make_inputs,
                    peak_rss_mb, percentile, rate_line, recall_hits)
from tracing import (NAME, PER_LAYER, START, END, Summary, batcher_wait_ms,
                     counter_metrics, span_metrics)

RATE = 90.0
MIX = (("query", 0.90), ("insert", 0.05), ("delete", 0.05))
CLIENT_CONNECTIONS = 2
#: Share of ``--seconds`` spent in the open loop; the rest is closed loop.
#: At ``RATE`` it sends about 1030 queries in a 15 s run: ``query_p90_ms``
#: has about a hundred samples beyond it, the details line's p99 ten.
OPEN_SHARE = 0.85
#: The closed loop sends this many requests per second of its share of
#: ``--seconds``: about the 2-connection capacity for seed 1 on a 2-core
#: host.  A count, not a duration, so the number of operations a run
#: attempts does not depend on the server's speed.
CLOSED_REQUESTS_PER_S = 200
#: The two loops alternate in this many slices each, so both sample the
#: whole run: the host's speed drifts over seconds.
ROUNDS = 5
#: Untimed closed-loop queries before measuring (about one second): the
#: first seconds of a fresh server answer slower (lazy caches, allocator
#: growth).
WARMUP_REQUESTS = 200
SETUP_REPS = 5
QUERY_POOL = 1000
READY_TIMEOUT_S = 120.0
REQUEST_TIMEOUT_S = 30.0
RECALL_FLOOR = 0.3


def child_env() -> Dict[str, str]:
    """Environment of the server: the checkout's sources, scratch inside it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


class Server:
    """One ``repro-knn serve`` subprocess, stopped with SIGINT."""

    def __init__(self, index_path: str, wal_path: str,
                 trace_out: Optional[str] = None) -> None:
        if os.path.exists(wal_path):
            os.remove(wal_path)
        args = [index_path, "--wal", wal_path, "--compact-async",
                "--engine", "native"]
        env = child_env()
        if trace_out is None:
            argv = [sys.executable, "-m", "repro.cli", "serve"] + args
        else:
            env["PERFBENCH_TRACE_OUT"] = trace_out
            argv = [sys.executable,
                    os.path.join(os.path.dirname(__file__),
                                 "serve_traced.py")] + args
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                     stdout=subprocess.PIPE, text=True)
        try:
            self.port = self._read_port()
            self.ready_s = self._wait_ready()
        except BaseException:
            self.stop()
            raise

    def _read_port(self) -> int:
        deadline = self.started + READY_TIMEOUT_S
        assert self.proc.stdout is not None
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    break
                if line.startswith("serving knn on http://"):
                    return int(line.split()[3].rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                break
        raise RuntimeError(f"server did not report its port "
                           f"(exit code {self.proc.poll()})")

    def _wait_ready(self) -> float:
        deadline = self.started + READY_TIMEOUT_S
        while time.perf_counter() < deadline:
            status, _ = request(self.port, "GET", "/readyz", None)
            if status == 200:
                return time.perf_counter() - self.started
            time.sleep(0.005)
        raise RuntimeError("server never became ready")

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        return self.proc.returncode


def _encode(method: str, path: str, body: Optional[bytes]) -> bytes:
    body = body or b""
    return (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode("ascii") + body


def _decode(raw: bytes) -> Tuple[int, bytes]:
    status_line, _, rest = raw.partition(b"\r\n")
    _, _, payload = rest.partition(b"\r\n\r\n")
    return int(status_line.split()[1]), payload


async def _exchange(port: int, method: str, path: str,
                    body: Optional[bytes]) -> Tuple[int, bytes]:
    """One HTTP/1.1 exchange on a fresh connection (the server closes it).

    Status 0 means no answer: the connection failed or timed out.
    Status -1 means an answer that is not HTTP; it counts as failed and
    as a response that did not parse.
    """
    writer = None
    try:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection("127.0.0.1", port), REQUEST_TIMEOUT_S)
        writer.write(_encode(method, path, body))
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), REQUEST_TIMEOUT_S)
    except (OSError, asyncio.TimeoutError) as error:
        return 0, str(error).encode()
    finally:
        if writer is not None:
            writer.close()
    try:
        return _decode(raw)
    except (IndexError, ValueError):
        return -1, raw


def request(port: int, method: str, path: str,
            body: Optional[bytes]) -> Tuple[int, bytes]:
    """A single exchange, outside the loops (readiness, ``/stats``)."""
    return asyncio.run(_exchange(port, method, path, body))


async def _timed(port: int, path: str, body: bytes,
                 due: Optional[float] = None) -> tuple:
    """``POST`` once at ``due`` (now if ``None``).

    Returns ``(due, send, end, status, payload)``.
    """
    if due is not None:
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
    send = time.perf_counter()
    status, payload = await _exchange(port, "POST", path, body)
    return due, send, time.perf_counter(), status, payload


def open_loop(port: int, schedule: List[Tuple[float, str, bytes]],
              ) -> Tuple[List[tuple], float, float]:
    """Send ``schedule`` (due offset, path, body); returns records + timing.

    Every request goes out at its due time on its own connection,
    whatever is still in flight: a slow answer (a write waiting on
    ``fsync``) never holds back a later request, and lateness (send
    minus due) is the generator's own.  Each record is
    ``(due, send, end, status, payload)``; the other two values are the
    wall time and the client's CPU seconds per wall second.
    """
    async def main() -> List[tuple]:
        start = time.perf_counter() + 0.05
        return list(await asyncio.gather(
            *(_timed(port, path, body, start + offset)
              for offset, path, body in schedule)))

    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    records = asyncio.run(main())
    wall = time.perf_counter() - start
    return records, wall, (_cpu_seconds() - cpu0) / wall


def closed_loop(port: int, items: List[tuple],
                ) -> Tuple[List[tuple], float]:
    """``CLIENT_CONNECTIONS`` back-to-back senders of every item.

    Returns the records ``(item index, send, end, status, payload)`` and
    the seconds the loop ran.
    """
    records: List[tuple] = []
    counter = iter(range(len(items)))

    async def sender() -> None:
        for i in counter:
            _, send, end, status, payload = await _timed(port, *items[i][:2])
            records.append((i, send, end, status, payload))

    async def main() -> None:
        await asyncio.gather(*(sender() for _ in range(CLIENT_CONNECTIONS)))

    start = time.perf_counter()
    asyncio.run(main())
    return records, time.perf_counter() - start


def _answered(records: Iterable[tuple]) -> int:
    return sum(1 for r in records if r[3] == 200)


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _query_body(row: np.ndarray) -> bytes:
    return json.dumps({"queries": [row.tolist()], "k": K}).encode()


def mixed_items(rng: np.random.Generator, n: int, queries: np.ndarray,
                held_out: np.ndarray, may_delete: np.ndarray) -> List[tuple]:
    """``n`` seeded request items ``(path, body, kind, arg)`` in the ``MIX``.

    ``arg`` is the query row, the held-out row inserted, or the base id
    deleted; inserts and deletes never repeat a point or an id.
    """
    bounds = np.cumsum([share for _, share in MIX])
    draws = rng.random(n)
    rows = rng.integers(queries.shape[0], size=n)
    items = []
    inserts = deletes = 0
    for draw, row in zip(draws, rows):
        kind = MIX[int(np.searchsorted(bounds, draw, side="right"))][0]
        if kind == "query":
            arg, body = int(row), _query_body(queries[row])
        elif kind == "insert":
            arg = inserts
            body = json.dumps({"points": [held_out[arg].tolist()]}).encode()
            inserts += 1
        else:
            arg = int(may_delete[deletes])
            body = json.dumps({"ids": [arg]}).encode()
            deletes += 1
        items.append((f"/{kind}", body, kind, arg))
    return items


def _parse(payload: bytes) -> Optional[dict]:
    try:
        value = json.loads(payload)
    except ValueError:
        return None
    return value if isinstance(value, dict) else None


def run(seed: int, seconds: float, traced: bool,
        ) -> Tuple[Dict[str, float], Dict[str, object], List[str], int, int]:
    """One run; returns ``(metrics, details, problems, attempted, failed)``."""
    from repro import BiLevelLSH
    from repro.persistence import save_index

    open_s = seconds * OPEN_SHARE
    per_slice = max(1, round(CLOSED_REQUESTS_PER_S * (seconds - open_s)
                             / ROUNDS))
    # Held-out points and base ids for every write the schedule can hold.
    n_writes_max = int(0.06 * 2 * RATE * open_s) + 64
    spec = Spec("serve", n_train=BATCH.n_train, n_queries=QUERY_POOL,
                batch_rows=1, width_mult=BATCH.width_mult)
    train, queries, held_out, ref_width = make_inputs(spec, seed,
                                                      n_writes_max)
    rng = np.random.default_rng([seed, 11])
    may_delete = rng.choice(train.shape[0], size=n_writes_max, replace=False)
    truth = exact_knn(train, queries, exclude=may_delete)
    gaps = rng.exponential(1.0 / RATE, size=int(RATE * open_s * 2) + 16)
    offsets = np.cumsum(gaps)
    offsets = offsets[offsets < open_s]
    schedule = list(zip(offsets.tolist(), mixed_items(
        rng, offsets.size, queries, held_out, may_delete)))
    closed_items = [("/query", _query_body(queries[row]), "query", int(row))
                    for row in rng.integers(queries.shape[0],
                                            size=per_slice * ROUNDS)]
    warmup_items = [("/query", _query_body(q), "query", i)
                    for i, q in enumerate(queries[:WARMUP_REQUESTS])]

    workdir = os.path.join(BUILD_DIR, f"serve-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    index_path = os.path.join(workdir, "index.npz")
    wal_path = os.path.join(workdir, "index.wal")
    trace_out = os.path.join(BUILD_DIR, f"trace-serve-seed{seed}.json")
    try:
        index = BiLevelLSH(bilevel_config(spec, ref_width, seed)).fit(train)
        save_index(index, index_path)
        del index
        return _drive(seed, traced, index_path, wal_path, trace_out, train,
                      queries, truth, may_delete, schedule, closed_items,
                      warmup_items, open_s, per_slice)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(server: Server, wal_path: str, schedule, closed_items,
             warmup_items, open_s: float, per_slice: int,
             ) -> Dict[str, object]:
    """Warm up, then alternate open- and closed-loop slices on ``server``.

    Returns the records ``(item, due or None, send, end, status,
    payload)``, the host's slowdown over each record's slice, the closed
    loop's per-slice rates scaled to the host's uncontended speed, the
    open-loop time windows and wall time, the client's CPU share, and
    the WAL bytes written.  The slowdown of a slice is the mean of
    :func:`host_slowdown` right before and right after it: the server
    runs in another process, and the open loop's schedule must not wait
    for a calibration.
    """
    warmup, _ = closed_loop(server.port, warmup_items)
    wal_start = os.path.getsize(wal_path)
    records: List[tuple] = []
    slowdowns: List[float] = []
    closed_rates: List[float] = []
    open_windows: List[Tuple[float, float]] = []
    open_wall = cpu_seconds = 0.0
    step = open_s / ROUNDS
    marks = [host_slowdown()]
    for r in range(ROUNDS):
        part = [(offset - r * step, item) for offset, item in schedule
                if r * step <= offset < (r + 1) * step]
        recs, wall, cpu_frac = open_loop(
            server.port, [(o, it[0], it[1]) for o, it in part])
        if recs:
            open_windows.append((min(rec[0] for rec in recs),
                                 max(rec[2] for rec in recs)))
        marks.append(host_slowdown())
        records += [(item,) + rec for (_, item), rec in zip(part, recs)]
        slowdowns += [(marks[-2] + marks[-1]) / 2] * len(recs)
        open_wall += wall
        cpu_seconds += cpu_frac * wall
        part = closed_items[r * per_slice:(r + 1) * per_slice]
        recs, wall = closed_loop(server.port, part)
        marks.append(host_slowdown())
        slow = (marks[-2] + marks[-1]) / 2
        records += [(part[rec[0]], None) + rec[1:] for rec in recs]
        slowdowns += [slow] * len(recs)
        closed_rates.append(_answered(recs) / wall * slow)
    return {"records": records, "slowdowns": slowdowns,
            "host_slowdown": marks, "closed_rates": closed_rates,
            "open_windows": open_windows, "open_wall": open_wall,
            "cpu_frac": cpu_seconds / open_wall, "warmup": len(warmup),
            "wal_bytes": os.path.getsize(wal_path) - wal_start}


def _drive(seed, traced, index_path, wal_path, trace_out, train, queries,
           truth, may_delete, schedule, closed_items, warmup_items, open_s,
           per_slice):
    setup_times: List[float] = []
    setup_scaled: List[float] = []
    untraced_rps = 0.0
    exit_codes: List[int] = []
    server: Optional[Server] = None
    phases = (schedule, closed_items, warmup_items, open_s, per_slice)
    try:
        for rep in range(SETUP_REPS):
            before = host_slowdown()
            server = Server(index_path, wal_path)
            setup_times.append(server.ready_s)
            slow = (before + host_slowdown()) / 2
            setup_scaled.append(server.ready_s / slow)
            if rep < SETUP_REPS - 1:
                exit_codes.append(server.stop())
                server = None
        if traced:
            # The same phases on the last untraced server give the
            # untraced closed-loop rate that trace.overhead_frac compares.
            reference = _measure(server, wal_path, *phases)
            untraced_rps = float(np.median(reference["closed_rates"]))
            exit_codes.append(server.stop())
            server = Server(index_path, wal_path, trace_out=trace_out)
        measured = _measure(server, wal_path, *phases)
        _, stats_payload = request(server.port, "GET", "/stats", None)
        server_stats = _parse(stats_payload) or {}
        peak_rss = peak_rss_mb(str(server.proc.pid))
    finally:
        if server is not None:
            exit_codes.append(server.stop())
    records = measured["records"]
    open_windows = measured["open_windows"]
    cpu_frac = measured["cpu_frac"]

    problems = [f"server exited with code {code}"
                for code in sorted(set(exit_codes)) if code != 0]
    counts = {kind: {"sent": 0, "answered": 0, "failed": 0, "refused": 0}
              for kind, _ in MIX}
    phase_counts = {p: {"sent": 0, "answered": 0, "failed": 0, "refused": 0}
                    for p in ("open", "closed")}
    query_lat: List[float] = []
    query_wall: List[float] = []
    write_lat: List[float] = []
    lateness: List[float] = []
    acked_delete: Dict[int, float] = {}
    answered_queries: List[tuple] = []  # (row, send, end, response)
    unparsed = 0
    for record, slow in zip(records, measured["slowdowns"]):
        (path, body, kind, arg), due, send, end, status, payload = record
        phase = "open" if due is not None else "closed"
        response = _parse(payload) if status else None
        if status and response is None:
            unparsed += 1
        outcome = _outcome(status, response)
        for table in (counts[kind], phase_counts[phase]):
            table["sent"] += 1
            table[outcome] += 1
        if due is not None:
            lateness.append(send - due)
        if outcome != "answered":
            continue
        # Open-loop requests count from when they were due; a closed-loop
        # request is due when its connection is free.
        wall = end - (due if due is not None else send)
        latency = wall / slow
        if kind == "query":
            if due is not None:
                query_lat.append(latency)
                query_wall.append(wall)
            answered_queries.append((arg, send, end, response))
        else:
            write_lat.append(latency)
            if kind == "delete":
                acked_delete[arg] = end
    if unparsed:
        problems.append(f"{unparsed} responses did not parse as JSON")

    hits = candidates = 0
    excluded = set(int(i) for i in may_delete)
    stale = 0
    for row, send, _end, response in answered_queries:
        try:
            ids = np.asarray(response["ids"], dtype=np.int64)
            dists = np.asarray([[np.inf if d is None else d for d in r]
                                for r in response["distances"]],
                               dtype=np.float64)
            n_candidates = int(sum(response["stats"]["n_candidates"]))
        except (KeyError, TypeError, ValueError):
            problems.append("a /query answer is missing ids, distances "
                            "or stats")
            continue
        problems += check_answers(train, queries[row:row + 1], ids, dists,
                                  np.iinfo(np.int64).max)
        live = [int(i) for i in ids[0] if i >= 0]
        stale += sum(1 for i in live
                     if i in acked_delete and acked_delete[i] < send)
        kept = np.asarray([i for i in live
                           if i < train.shape[0] and i not in excluded])
        hits += recall_hits(kept, truth[row])
        candidates += n_candidates
    if stale:
        problems.append(f"{stale} answers held an id whose delete was "
                        f"acknowledged before the query was sent")
    problems = sorted(set(problems))
    n_answered = len(answered_queries)
    recall = hits / (K * n_answered) if n_answered else 0.0
    if recall < RECALL_FLOOR:
        problems.append(f"recall {recall:.3f} below floor {RECALL_FLOOR}")
    attempted = sum(c["sent"] for c in counts.values())
    failed = sum(c["failed"] + c["refused"] for c in counts.values())
    details = {
        "workload": "serve", "seed": seed, "rate_rps": RATE,
        "open_seconds": open_s, "closed_requests": len(closed_items),
        "client_connections": CLIENT_CONNECTIONS,
        "setup_spawns_s": setup_times, "setup_spawns_scaled_s": setup_scaled,
        "host_slowdown": measured["host_slowdown"],
        "by_op": counts, "by_phase": phase_counts,
        "open_query_latency": rate_line(query_lat),
        "open_query_latency_wall": rate_line(query_wall),
        "write_latency": rate_line(write_lat),
        "lateness": rate_line(lateness), "client_cpu_frac": cpu_frac,
        "open_wall_s": measured["open_wall"], "server_stats": server_stats,
        "wal_bytes": measured["wal_bytes"],
    }
    honesty = {
        "client.lateness_p50_ms": percentile(lateness, 50) * 1e3,
        "client.lateness_p99_ms": percentile(lateness, 99) * 1e3,
        "client.cpu_frac": cpu_frac,
        "ops.query_failed": float(counts["query"]["failed"]
                                  + counts["query"]["refused"]),
        "ops.insert_failed": float(counts["insert"]["failed"]
                                   + counts["insert"]["refused"]),
        "ops.delete_failed": float(counts["delete"]["failed"]
                                   + counts["delete"]["refused"]),
        "ops.failed_frac": failed / attempted if attempted else 0.0,
    }
    for phase, table in phase_counts.items():
        for key, value in table.items():
            honesty[f"{phase}.{key}"] = float(value)
    # Medians over the closed loop's slices: a slow stretch of the host
    # that covers less than half of them does not move the rates.
    closed_rps = float(np.median(measured["closed_rates"]))
    if not traced:
        metrics = {
            "setup_s": float(np.median(setup_scaled)),
            # The closed loop sends one-row queries only, so its query
            # rows per second are its requests per second: on serve, qps
            # mirrors closed_rps.
            "qps": closed_rps,
            "recall_at_10": recall,
            "query_p50_ms": percentile(query_lat, 50) * 1e3,
            "query_p90_ms": percentile(query_lat, 90) * 1e3,
            "closed_rps": closed_rps,
            "answered_frac": (attempted - failed) / attempted,
            "peak_rss_mb": peak_rss,
        }
        return metrics, details, problems, attempted, failed

    with open(trace_out) as fh:
        trace = json.load(fh)
    spans = [tuple(s) for s in trace["spans"]]
    in_open = [s for s in spans
               if any(lo <= s[START] <= hi for lo, hi in open_windows)]
    open_queries = [(send, end)
                    for (_, _, kind, _), due, send, end, status, _ in records
                    if kind == "query" and due is not None and status == 200]
    requests = len(open_queries)
    query = Summary(in_open)
    setup = Summary(s for s in spans if s[NAME].startswith("setup."))
    layer = {name: 0.0 for name, _ in PER_LAYER}
    layer.update(span_metrics(query, setup, requests, requests, 1))
    rows_served = len(answered_queries)
    # The server's counters also saw the warm-up queries.
    layer.update(counter_metrics(trace.get("counters", {}),
                                 rows_served + measured["warmup"]))
    self_ms, covered = _http_self(in_open, open_queries)
    admission = server_stats.get("admission", {})
    wal_spans = [s[END] - s[START] for s in spans if s[NAME] == "wal.append"]
    layer.update(honesty)
    layer.update({
        "http.self_ms": self_ms,
        "http.conns_per_request": 1.0,  # the server closes every connection
        "admission.shed": float(admission.get("shed", 0)),
        "admission.depth_max": float(admission.get("peak_depth", 0)),
        "batcher.wait_ms": batcher_wait_ms(in_open),
        "batcher.rows_per_exec": (
            query.size["runtime.submit"] / query.calls["runtime.submit"]
            if query.calls["runtime.submit"] else 0.0),
        "lsh.candidates_per_query": candidates / rows_served
        if rows_served else 0.0,
        "lsh.candidate_yield": hits / candidates if candidates else 0.0,
        "wal.append_ms": (1e3 * sum(wal_spans) / len(wal_spans)
                          if wal_spans else 0.0),
        "compactor.busy_ms": 1e3 * sum(s[END] - s[START] for s in spans
                                       if s[NAME] == "compactor.execute"),
        "trace.coverage": covered,
        "trace.overhead_frac": (untraced_rps / closed_rps - 1.0
                                if closed_rps else 0.0),
    })
    details["trace_file"] = trace_out
    return layer, details, problems, attempted, failed


def _outcome(status: int, response: Optional[dict]) -> str:
    if status == 0 or response is None:
        return "refused" if status == 0 else "failed"
    if status != 200:
        return "failed"
    return "refused" if response.get("shed") else "answered"


def _http_self(spans: List[tuple], queries: List[Tuple[float, float]],
               ) -> Tuple[float, float]:
    """Median client-side time outside ``MicroBatcher.submit``, and the
    share of client latency the server's submit spans cover."""
    submits = sorted((s for s in spans if s[NAME] == "batcher.submit"),
                     key=lambda s: s[START])
    starts = [s[START] for s in submits]
    outside: List[float] = []
    covered = total = 0.0
    for send, end in queries:
        i = bisect.bisect_left(starts, send)
        while i < len(submits) and submits[i][END] > end:
            i += 1
        if i == len(submits) or submits[i][START] > end:
            continue
        inside = submits[i][END] - submits[i][START]
        outside.append(end - send - inside)
        covered += inside
        total += end - send
    return (percentile(outside, 50) * 1e3 if outside else 0.0,
            covered / total if total else 0.0)
