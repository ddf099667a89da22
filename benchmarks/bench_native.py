#!/usr/bin/env python
"""Native-tier benchmark: compiled kernels vs the vectorized engine.

Times ``engine="native"`` against ``engine="vectorized"`` interleaved
(round-robin, so machine-state drift hits both equally) on the same
labelme-like workload as ``bench_exec.py``, for the StandardLSH and
BiLevelLSH front-ends, and fails loudly when

1. the native (or process-pool) results are not **bit-identical** to the
   vectorized unsharded reference (``ids_match`` / ``dists_match`` — by
   construction the recalls are then equal too, which the report still
   records per row), or
2. the best gated speedup falls below ``--min-top-speedup`` (default 3.0;
   the ISSUE's headline claim), or
3. any gated config regresses below ``--min-speedup`` (default 1.0).

The ``ProcessShardExecutor`` row is **informational** (``gated: false``):
on a single-core box the pool pays IPC for no parallelism, so its
speedup is a property of the machine, not the code.  Its bit-parity is
still enforced.

Writes ``BENCH_native.json`` next to the repository root.

Usage::

    PYTHONPATH=src python benchmarks/bench_native.py [--quick] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np
from conftest import interleaved_times, latency_row

from repro import obs
from repro.core.bilevel import BiLevelLSH
from repro.core.config import BiLevelConfig
from repro.evaluation.metrics import recall_ratio
from repro.exec import ProcessShardExecutor
from repro.experiments.workloads import Scale, make_workload
from repro.lsh.index import StandardLSH
from repro.native import registry

REPO_ROOT = Path(__file__).resolve().parent.parent
RECALL_K = 10


def bench_engines(name, index, workload, k, rounds, exact_ids):
    """Interleaved vectorized/native timing of one fitted index."""
    queries = workload.queries
    timings = interleaved_times({
        "vectorized": lambda: index.query_batch(queries, k),
        "native": lambda: index.query_batch(queries, k, engine="native"),
    }, rounds)
    ref_ids, ref_dists, _ = timings["vectorized"].result
    rows = []
    match = True
    for engine, timing in timings.items():
        ids, dists, _ = timing.result
        ids_match = bool(np.array_equal(ref_ids, ids))
        dists_match = bool(np.array_equal(ref_dists.view(np.int64),
                                          dists.view(np.int64)))
        match &= ids_match and dists_match
        recall = float(recall_ratio(exact_ids, ids[:, :RECALL_K]).mean())
        rows.append(latency_row(timing, queries.shape[0], extra={
            "method": name,
            "engine": engine,
            "batch_seconds_best": timing.best,
            f"recall_at_{RECALL_K}": recall,
            "ids_match": ids_match,
            "dists_match": dists_match,
            "gated": engine == "native",
        }))
    speedup = timings["vectorized"].best / timings["native"].best
    return rows, speedup, match


def bench_process_pool(index, workload, k, rounds, max_batch_rows,
                       n_workers, exact_ids):
    """Informational row: the shared-memory process pool vs in-process."""
    queries = workload.queries
    ref_ids, ref_dists, _ = index.query_batch(queries, k)
    with ProcessShardExecutor(index, n_workers=n_workers) as executor:
        timings = interleaved_times({
            "unsharded": lambda: index.query_batch(queries, k),
            "process": lambda: executor.query_batch(
                queries, k, max_batch_rows=max_batch_rows),
        }, rounds)
    ids, dists, _ = timings["process"].result
    ids_match = bool(np.array_equal(ref_ids, ids))
    dists_match = bool(np.array_equal(ref_dists.view(np.int64),
                                      dists.view(np.int64)))
    recall = float(recall_ratio(exact_ids, ids[:, :RECALL_K]).mean())
    row = latency_row(timings["process"], queries.shape[0], extra={
        "method": "standard",
        "engine": f"process[workers={n_workers},rows={max_batch_rows}]",
        "batch_seconds_best": timings["process"].best,
        f"recall_at_{RECALL_K}": recall,
        "ids_match": ids_match,
        "dists_match": dists_match,
        "gated": False,
    })
    speedup = timings["unsharded"].best / timings["process"].best
    return row, speedup, ids_match and dists_match


def instrumented_snapshot(index, queries, k):
    """One extra observed native batch; returns the full snapshot dict.

    The metrics section of the report then carries the per-kernel
    latency histograms (``repro_native_kernel_seconds``) alongside the
    timing rows.
    """
    from repro.obs.registry import MetricsRegistry

    snap_registry = MetricsRegistry()
    obs.enable(registry=snap_registry)
    try:
        index.query_batch(queries, k, engine="native")
    finally:
        obs.disable()
    return obs.full_snapshot(snap_registry)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI-scale run (seconds)")
    parser.add_argument("--out", type=Path,
                        default=REPO_ROOT / "BENCH_native.json")
    parser.add_argument("--rounds", type=int, default=None,
                        help="interleaved timing rounds per front-end")
    parser.add_argument("--min-top-speedup", type=float, default=None,
                        help="required best gated native speedup "
                             "(default 3.0, 2.0 under --quick: tiny "
                             "batches amortize less fixed cost)")
    parser.add_argument("--min-speedup", type=float, default=1.0,
                        help="no gated config may regress below this")
    parser.add_argument("--shard-workers", type=int,
                        default=min(2, os.cpu_count() or 1),
                        help="pool size for the informational process row "
                             "(0 disables it)")
    args = parser.parse_args(argv)
    min_top = args.min_top_speedup or (2.0 if args.quick else 3.0)

    backend = registry.native_backend()
    if backend is None:
        print("FAIL: no compiled native backend resolved "
              f"(status: {registry.native_status()['errors']}); "
              "this benchmark gates the compiled tier — provide a C "
              "toolchain (cc, gcc or clang on PATH, or REPRO_NATIVE_CC)",
              file=sys.stderr)
        return 1

    if args.quick:
        scale = Scale(n_train=3000, n_queries=600, dim=32, k=RECALL_K,
                      n_tables=6, seed=0)
        rounds = args.rounds or 9
    else:
        scale = Scale(n_train=20000, n_queries=2000, dim=64, k=RECALL_K,
                      n_tables=10, seed=0)
        rounds = args.rounds or 7

    workload = make_workload("labelme", scale)
    width = 3.0 * workload.reference_width
    k = RECALL_K
    exact_ids, _ = workload.ground_truth.neighbors(RECALL_K)
    max_batch_rows = max(scale.n_queries // (2 if args.quick else 4), 1)
    print(f"backend: {backend}; workload: labelme-like n={scale.n_train} "
          f"q={scale.n_queries} dim={scale.dim} L={scale.n_tables}")

    results = []
    speedups = {}
    all_match = True

    standard = StandardLSH(n_hashes=scale.n_hashes, n_tables=scale.n_tables,
                           bucket_width=width, seed=scale.seed).fit(
                               workload.train)
    rows, speedup, match = bench_engines("standard", standard, workload, k,
                                         rounds, exact_ids)
    results.extend(rows)
    speedups["standard"] = speedup
    all_match &= match

    bilevel = BiLevelLSH(BiLevelConfig(
        n_groups=scale.n_groups, n_hashes=scale.n_hashes,
        n_tables=scale.n_tables, bucket_width=width,
        seed=scale.seed)).fit(workload.train)
    rows, speedup, match = bench_engines("bilevel", bilevel, workload, k,
                                         rounds, exact_ids)
    results.extend(rows)
    speedups["bilevel"] = speedup
    all_match &= match

    process_speedup = None
    if args.shard_workers > 0:
        row, process_speedup, match = bench_process_pool(
            standard, workload, k, max(rounds // 2, 3), max_batch_rows,
            args.shard_workers, exact_ids)
        results.append(row)
        all_match &= match

    snapshot = instrumented_snapshot(standard, workload.queries, k)
    report = {
        "benchmark": "native_tier",
        "quick": bool(args.quick),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "backend": registry.native_status(),
        "workload": {"name": "labelme", "n_train": scale.n_train,
                     "n_queries": scale.n_queries, "dim": scale.dim,
                     "k": k, "n_tables": scale.n_tables,
                     "bucket_width": width},
        "rounds": rounds,
        "min_top_speedup": min_top,
        "min_speedup": args.min_speedup,
        "results": results,
        "speedup_vectorized_to_native": speedups,
        "process_pool_speedup_vs_unsharded": process_speedup,
        "all_results_bit_identical": bool(all_match),
        "metrics": snapshot["metrics"],
        "metrics_derived": snapshot["derived"],
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    print(f"\n{'method':<12}{'engine':<34}{'best batch s':>14}"
          f"{'QPS':>12}{'recall@10':>11}")
    for row in results:
        print(f"{row['method']:<12}{row['engine']:<34}"
              f"{row['batch_seconds_best']:>14.5f}{row['qps']:>12.0f}"
              f"{row[f'recall_at_{RECALL_K}']:>11.3f}")
    print("\nspeedups (vectorized -> native): "
          + ", ".join(f"{m}={s:.2f}x" for m, s in speedups.items()))
    if process_speedup is not None:
        print(f"process pool vs unsharded (informational): "
              f"{process_speedup:.2f}x on {os.cpu_count()} cpu(s)")
    print(f"report: {args.out}")

    if not all_match:
        print("FAIL: results are not bit-identical to the vectorized "
              "reference", file=sys.stderr)
        return 1
    best = max(speedups, key=speedups.get)
    worst = min(speedups, key=speedups.get)
    if speedups[best] < min_top:
        print(f"FAIL: best native speedup {speedups[best]:.2f}x "
              f"({best}) < {min_top}x target", file=sys.stderr)
        return 1
    if speedups[worst] < args.min_speedup:
        print(f"FAIL: {worst} native speedup {speedups[worst]:.2f}x "
              f"regresses below {args.min_speedup}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
