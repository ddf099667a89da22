"""In-process workloads: ``batch``, ``probe-zm`` and ``probe-e8``.

Each run generates its inputs from the seed and fits the index
``spec.setup_reps`` times, each fit with its own seed drawn from the
workload seed (``setup_s`` is the median fit).  Right after each fit,
two closed loops of ``query_batch`` calls measure it:

1. **Batch loop**, ``BATCH_SHARE`` of the fit's share of ``--seconds``:
   the workload's query batches in turn.  Every batch is first answered
   once untimed (the warm-up, and the reference answers).
2. **Row loop**, the rest: one-row calls, the shape of ``serve``'s
   ``/query``, over the query rows in a seeded order.  A row's first
   answer is its reference.

Every repeated answer must equal its reference bit for bit.  The two
loops alternate in about ``ROUNDS`` slices each over the whole run: the
host's speed drifts over seconds, and slices spread every metric's
samples over the whole run.  The fits differ in their hash functions
and RP-tree, so their candidate counts, and with them the cost of a
query, differ by up to a fifth; measuring every fit averages that out.

Every timing behind a metric (fits, calls) is scaled to the host's
uncontended speed with :class:`common.HostSpeed`; the wall times stay in
the details line.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Tuple

import numpy as np

from common import (BUILD_DIR, CALIBRATION_REF_S, K, HostSpeed, Spec,
                    bilevel_config, calibrate, check_answers, exact_knn,
                    make_inputs, peak_rss_mb, percentile, rate_line,
                    recall_hits, reset_peak_rss)
from tracing import (PER_LAYER, PHASE, Summary, Tracer, counter_metrics,
                     span_metrics)

#: The loops alternate in this many slices each (in a traced run:
#: untraced and traced slices of the batch loop).
ROUNDS = 5
#: Share of ``--seconds`` spent in the batch loop; the row loop gets the
#: rest.
BATCH_SHARE = 0.75
#: Recall below this means the index answers garbage, not a slowdown.
RECALL_FLOOR = 0.3


class ClosedLoop:
    """Closed loop of ``query_batch`` calls cycling through ``batches``.

    ``reference[j]`` is batch ``j``'s expected ``(ids, distances)``; a
    ``None`` entry takes the batch's first answer.  ``latencies`` are
    wall times; ``scaled`` are the same times scaled to the host's
    uncontended speed by ``speed``, and every rate is taken from them.
    """

    def __init__(self, batches, reference, speed: HostSpeed) -> None:
        self.batches = batches
        self.reference = reference
        self.speed = speed
        self.latencies: List[float] = []
        self.scaled: List[float] = []
        self.calls = self.rows = self.failed = self.mismatches = 0
        self.errors: List[str] = []

    def run(self, index, seconds: float) -> None:
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            j = self.calls % len(self.batches)
            self.calls += 1
            t0 = time.perf_counter()
            try:
                ids, dists, _ = index.query_batch(self.batches[j], K,
                                                  engine="native")
            except Exception as error:  # counted as a failed operation
                self.failed += 1
                self.errors.append(f"{type(error).__name__}: {error}")
                continue
            self.latencies.append(time.perf_counter() - t0)
            self.scaled.append(self.latencies[-1])
            self.speed.scaled(self.scaled, len(self.scaled) - 1)
            self.speed.mark()
            self.rows += self.batches[j].shape[0]
            if self.reference[j] is None:
                self.reference[j] = (ids, dists)
            elif not (np.array_equal(ids, self.reference[j][0])
                      and np.array_equal(dists, self.reference[j][1])):
                self.mismatches += 1
        self.speed.mark(force=True)


def _per_second(loops: List[ClosedLoop], count: int) -> float:
    """``count`` over the loops' scaled call time, per second."""
    busy = sum(sum(lp.scaled) for lp in loops)
    return count / busy if busy else 0.0


def _rows_per_second(loops: List[ClosedLoop]) -> float:
    return _per_second(loops, sum(lp.rows for lp in loops))


def _calls_per_second(loops: List[ClosedLoop]) -> float:
    return _per_second(loops, sum(len(lp.scaled) for lp in loops))


def _probe_hit_frac(index, queries: np.ndarray) -> float:
    """Share of multi-probe lookups that land in a non-empty bucket.

    An untimed side pass over one batch: the probe sequences of every
    group table are regenerated and looked up directly.
    """
    groups = index.partitioner.assign(queries)
    hits = probes = 0
    for g, group in enumerate(index.group_indexes):
        rows = queries[groups == g]
        if rows.shape[0] == 0 or group.n_probes == 0:
            continue
        projections = [f.project(rows) for f in group._families]
        codes = [group._lattice.quantize(p) for p in projections]
        for t, table in enumerate(group._tables):
            codes_all, _ = group._probe_rows(projections, codes, t)
            extra = codes_all[rows.shape[0]:]
            probes += extra.shape[0]
            hits += int(np.count_nonzero(table.lookup_batch(extra) >= 0))
    return hits / probes if probes else 0.0


def run(spec: Spec, seed: int, seconds: float, traced: bool,
        ) -> Tuple[Dict[str, float], Dict[str, object], List[str], int, int]:
    """One run; returns ``(metrics, details, problems, attempted, failed)``."""
    from repro import BiLevelLSH, obs
    from repro.obs.registry import MetricsRegistry

    train, queries, _, ref_width = make_inputs(spec, seed, 0)
    truth = exact_knn(train, queries)
    batches = [queries[s:s + spec.batch_rows]
               for s in range(0, queries.shape[0], spec.batch_rows)]
    order = np.random.default_rng([seed, 13]).permutation(queries.shape[0])
    row_batches = [queries[i:i + 1] for i in order]
    tracer = Tracer() if traced else None
    registry = MetricsRegistry()
    speed = HostSpeed()
    # Slices per fit, so that every run has about ROUNDS of them.
    rounds = max(1, round(ROUNDS / spec.setup_reps))
    slice_s = seconds / (spec.setup_reps * rounds)
    problems: List[str] = []
    setup_times: List[float] = []
    setup_scaled: List[float] = []
    batch_loops: List[ClosedLoop] = []
    row_loops: List[ClosedLoop] = []
    untraced_loops: List[ClosedLoop] = []
    hits = candidates = escalated = 0

    reset_peak_rss()
    for fit in range(spec.setup_reps):
        fit_seed = np.random.SeedSequence([seed, fit]).generate_state(1)[0]
        config = bilevel_config(spec, ref_width, int(fit_seed))
        index = None  # free the previous fit before the next one
        if tracer is not None:
            tracer.phase = "setup"
            tracer.install()
        before = calibrate()
        t0 = time.perf_counter()
        index = BiLevelLSH(config).fit(train)
        setup_times.append(time.perf_counter() - t0)
        slowdown = (before + calibrate()) / 2 / CALIBRATION_REF_S
        setup_scaled.append(setup_times[-1] / slowdown)
        if tracer is not None:
            tracer.uninstall()

        reference = [index.query_batch(b, K, engine="native")
                     for b in batches]
        for b, (ids, dists, stats) in zip(batches, reference):
            problems += check_answers(train, b, ids, dists, train.shape[0])
            candidates += int(stats.n_candidates.sum())
            escalated += int(np.count_nonzero(stats.escalated))
        answers = np.concatenate([r[0] for r in reference])
        hits += sum(recall_hits(a, t) for a, t in zip(answers, truth))

        loop = ClosedLoop(batches, [r[:2] for r in reference], speed)
        batch_loops.append(loop)
        if traced:
            # Untraced and traced slices alternate; the traced run
            # measures the batch loop only.
            untraced = ClosedLoop(batches, loop.reference, speed)
            untraced_loops.append(untraced)
            tracer.phase = "query"
            for _ in range(rounds):
                untraced.run(index, slice_s / 2)
                obs.enable(registry=registry)
                tracer.install()
                try:
                    loop.run(index, slice_s / 2)
                finally:
                    tracer.uninstall()
                    obs.disable()
            continue
        rows = ClosedLoop(row_batches, [None] * order.size, speed)
        row_loops.append(rows)
        for _ in range(rounds):
            loop.run(index, slice_s * BATCH_SHARE)
            rows.run(index, slice_s * (1.0 - BATCH_SHARE))
        answered = [(order[j], r) for j, r in enumerate(rows.reference)
                    if r is not None]
        if answered:
            problems += check_answers(
                train, queries[[i for i, _ in answered]],
                np.concatenate([r[0] for _, r in answered]),
                np.concatenate([r[1] for _, r in answered]), train.shape[0])

    n_answers = queries.shape[0] * spec.setup_reps
    recall = hits / (K * n_answers)
    if recall < RECALL_FLOOR:
        problems.append(f"recall {recall:.3f} below floor {RECALL_FLOOR}")
    loops = batch_loops + row_loops + untraced_loops
    problems = sorted(set(problems))
    mismatches = sum(lp.mismatches for lp in loops)
    if mismatches:
        problems.append(f"{mismatches} repeated calls answered "
                        f"differently from the first answer")
    failed = sum(lp.failed for lp in loops)
    attempted = sum(lp.calls for lp in loops)
    batch_wall = [t for lp in batch_loops for t in lp.latencies]
    batch_rows = sum(lp.rows for lp in batch_loops)
    details = {
        "workload": spec.name, "seed": seed, "rows_per_call": spec.batch_rows,
        "distinct_queries": queries.shape[0], "n_train": train.shape[0],
        "bucket_width": config.bucket_width,
        "setup_fits_s": setup_times,
        "setup_fits_scaled_s": setup_scaled,
        "batch_calls": rate_line(batch_wall),
        "batch_calls_scaled": rate_line(
            [t for lp in batch_loops for t in lp.scaled]),
        "batch_qps_wall": batch_rows / sum(batch_wall) if batch_wall else 0.0,
        "calibration": rate_line(speed.samples),
        "errors": [e for lp in loops for e in lp.errors],
    }

    if traced:
        query = Summary(s for s in tracer.spans if s[PHASE] == "query")
        setup = Summary(s for s in tracer.spans if s[PHASE] == "setup")
        requests = len(batch_wall)
        layer = {name: 0.0 for name, _ in PER_LAYER}
        layer.update(span_metrics(query, setup, requests, batch_rows,
                                  spec.setup_reps))
        layer.update(counter_metrics(registry.snapshot(), batch_rows))
        layer.update({
            "lsh.candidates_per_query": candidates / n_answers,
            "lsh.candidate_yield": hits / candidates if candidates else 0.0,
            "hierarchy.escalated_frac": escalated / n_answers,
            "multiprobe.hit_frac": _probe_hit_frac(index, batches[0]),
            "ops.query_failed": float(failed),
            "ops.failed_frac": failed / attempted if attempted else 0.0,
            "trace.coverage": query.root_time / sum(batch_wall),
            "trace.overhead_frac": (_rows_per_second(untraced_loops)
                                    / _rows_per_second(batch_loops) - 1.0),
        })
        details["trace_file"] = _dump(tracer, spec.name, seed,
                                      registry.snapshot())
        return layer, details, problems, attempted, failed

    row_scaled = [t for lp in row_loops for t in lp.scaled]
    details.update({
        "row_calls": rate_line([t for lp in row_loops for t in lp.latencies]),
        "row_calls_scaled": rate_line(row_scaled),
        "failed_by_loop": {"batch": sum(lp.failed for lp in batch_loops),
                           "row": sum(lp.failed for lp in row_loops)}})
    metrics = {
        "setup_s": float(np.median(setup_scaled)),
        "qps": _rows_per_second(batch_loops),
        "recall_at_10": recall,
        "query_p50_ms": percentile(row_scaled, 50) * 1e3,
        "query_p90_ms": percentile(row_scaled, 90) * 1e3,
        "closed_rps": _calls_per_second(row_loops),
        "answered_frac": (attempted - failed) / attempted,
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, details, problems, attempted, failed


def _dump(tracer: Tracer, workload: str, seed: int,
          counters: Dict[str, object]) -> str:
    os.makedirs(BUILD_DIR, exist_ok=True)
    path = os.path.join(BUILD_DIR, f"trace-{workload}-seed{seed}.json")
    tracer.dump(path, {"counters": counters})
    return path
