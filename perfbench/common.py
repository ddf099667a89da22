"""Shared pieces of the repo benchmark: workload specs, inputs, statistics.

Every input is generated from the workload seed with the library's own
LabelMe-like GIST generator, following
``repro.experiments.workloads.make_workload``, so one seed always yields
the same arrays.
Exact ground truth is computed here, outside every timed region.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Root of the checkout the benchmark runs in (the parent of this package).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Scratch space inside the checkout; git ignores it.
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")

K = 10
DIM = 64


@dataclass(frozen=True)
class Spec:
    """One workload's fixed definition (everything but the seed)."""

    name: str
    n_train: int
    n_queries: int          # distinct query rows the run cycles through
    batch_rows: int         # rows per query_batch call (in-process)
    width_mult: float       # bucket width W = width_mult * reference width
    lattice: str = "zm"
    n_probes: int = 0
    hierarchy: bool = False
    setup_reps: int = 3     # fits per run, each measured; setup_s is
                            # their median


#: Fig. 5 configuration: plain Z^M Bi-level, batch-throughput bound.
BATCH = Spec("batch", n_train=100_000, n_queries=2000, batch_rows=2000,
             width_mult=4.0, setup_reps=5)
#: Figs. 7/9/11: Z^M with query-directed multi-probe and the hierarchy.
PROBE_ZM = Spec("probe-zm", n_train=20_000, n_queries=400, batch_rows=100,
                width_mult=3.0, lattice="zm", n_probes=16, hierarchy=True,
                setup_reps=3)
#: Figs. 8/10/12: E8 with multi-probe and the hierarchy (paper's best).
PROBE_E8 = Spec("probe-e8", n_train=20_000, n_queries=400, batch_rows=100,
                width_mult=3.0, lattice="e8", n_probes=16, hierarchy=True,
                setup_reps=2)

IN_PROCESS = {s.name: s for s in (BATCH, PROBE_ZM, PROBE_E8)}


def bilevel_config(spec: Spec, reference_width: float, seed: int):
    """The workload's index configuration (library defaults elsewhere)."""
    from repro import BiLevelConfig

    return BiLevelConfig(n_groups=16, n_hashes=8, n_tables=10,
                         bucket_width=spec.width_mult * reference_width,
                         lattice=spec.lattice, n_probes=spec.n_probes,
                         hierarchy=spec.hierarchy, seed=seed)


def make_inputs(spec: Spec, seed: int, extra_rows: int,
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """``(train, queries, held_out, reference_width)`` for one seed.

    The same steps as ``repro.experiments.workloads.make_workload``
    (``labelme_like`` data, ``train_query_split``, the reference width)
    with a larger reference sample; see :func:`reference_width`.
    ``held_out`` are ``extra_rows`` further points of the same
    distribution, never indexed at fit time (the workload inserts them).
    """
    from repro.datasets.synthetic import labelme_like, train_query_split

    n_queries = spec.n_queries + extra_rows
    data = labelme_like(n_points=spec.n_train + n_queries, dim=DIM,
                        seed=seed)
    train, queries = train_query_split(data, n_queries, seed=seed + 1)
    held_out = queries[spec.n_queries:]
    return (train, queries[:spec.n_queries], held_out,
            reference_width(train, seed + 2))


#: Training points whose exact 10-NN distance sets the reference width.
#: ``make_workload`` samples 256; with M = 8 the bucket volume grows as
#: W^8, so that sample's noise moved candidate counts by several percent
#: from seed to seed.
REFERENCE_SAMPLE = 1024


def reference_width(train: np.ndarray, seed: int) -> float:
    """Median exact ``K``-NN distance of a seeded training sample."""
    from repro.evaluation.groundtruth import brute_force_knn
    from repro.utils.rng import ensure_rng

    rng = ensure_rng(seed)
    sample = train[rng.choice(train.shape[0], size=REFERENCE_SAMPLE,
                              replace=False)]
    # Column 0 is the sample point itself; the last is its K-th neighbour.
    _, dists = brute_force_knn(train, sample, K + 1, block_size=32)
    return float(np.median(dists[:, -1]))


def exact_knn(train: np.ndarray, queries: np.ndarray,
              exclude: Optional[np.ndarray] = None) -> np.ndarray:
    """Exact top-``K`` ids of ``queries`` over ``train`` minus ``exclude``."""
    from repro.evaluation.groundtruth import brute_force_knn

    if exclude is None or exclude.size == 0:
        ids, _ = brute_force_knn(train, queries, K, block_size=32)
        return ids
    keep = np.setdiff1d(np.arange(train.shape[0]), exclude)
    ids, _ = brute_force_knn(train[keep], queries, K, block_size=32)
    return keep[ids]


def recall_hits(answer: np.ndarray, truth: np.ndarray) -> int:
    """How many of one query's true neighbours ``answer`` contains."""
    return int(np.intersect1d(answer, truth).size)


def check_answers(train: np.ndarray, queries: np.ndarray, ids: np.ndarray,
                  dists: np.ndarray, n_ids: int) -> List[str]:
    """Structural checks on one answer block; returns the problems found."""
    problems = []
    if ids.shape != (queries.shape[0], K) or dists.shape != ids.shape:
        return [f"answer shape {ids.shape}/{dists.shape}"]
    valid = ids >= 0
    if np.any(ids >= n_ids) or np.any(ids[~valid] != -1):
        problems.append("id out of range")
    ordered = np.where(valid, dists, np.inf)
    if np.any(ordered[:, 1:] < ordered[:, :-1]):
        problems.append("distances not ascending")
    rows, cols = np.nonzero(valid & (ids < train.shape[0]))
    true_d = np.linalg.norm(train[ids[rows, cols]] - queries[rows], axis=1)
    if not np.allclose(dists[rows, cols], true_d, rtol=1e-6, atol=1e-6):
        problems.append("distance does not match the returned id")
    for row in ids:
        live = row[row >= 0]
        if np.unique(live).size != live.size:
            problems.append("duplicate id in one answer")
            break
    return problems


#: About the :func:`calibrate` time on an uncontended core of the 2-vCPU
#: host the bounds were set on (0.7 to 0.8 ms there).  Host-speed-scaled
#: times are expressed at this speed; see :class:`HostSpeed`.
CALIBRATION_REF_S = 0.8e-3

_CAL_SMALL = [np.random.default_rng(i).random(16) for i in range(96)]
_CAL_LIST = list(range(50_000))


def calibrate() -> float:
    """Seconds one fixed piece of benchmark-owned work takes right now.

    Tiny numpy calls and dict/list work in the interpreter: the mix of
    the per-query Python in the probe workloads and of the numpy and C
    kernel calls in ``batch``.  It runs no program code, so a change to
    the program never changes it; only the host's speed does.  The best
    of three runs drops an interrupt.
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for a in _CAL_SMALL:
            np.argsort(a)
            np.add(a, a)
            a.max()
        table: Dict[int, int] = {}
        total = 0
        for i in range(3000):
            table[(i * 7) % 1009] = i
            total += _CAL_LIST[(i * 131) % 50_000]
        best = min(best, time.perf_counter() - t0)
    return best


class HostSpeed:
    """Scales measured times to the host's uncontended speed.

    The host runs the same instructions at two or three speeds up to
    1.8x apart, each held for seconds, as other machines' work comes and
    goes on the cores it shares.  :meth:`mark` runs :func:`calibrate`
    every ``period`` seconds between the timed calls; each call's time
    is multiplied by ``CALIBRATION_REF_S`` over the calibration measured
    right after it, the host's slowdown at that moment.
    """

    def __init__(self, period: float = 0.05) -> None:
        self.period = period
        self.samples: List[float] = []
        self._last = time.perf_counter()
        self._pending: List[Tuple[list, int]] = []

    def scaled(self, out: list, index: int) -> None:
        """Scale ``out[index]`` at the next calibration."""
        self._pending.append((out, index))

    def mark(self, force: bool = False) -> None:
        """Calibrate if ``period`` has passed (always if ``force``)."""
        if not (force or time.perf_counter() - self._last >= self.period):
            return
        cal = calibrate()
        self.samples.append(cal)
        factor = CALIBRATION_REF_S / cal
        for out, index in self._pending:
            out[index] *= factor
        self._pending.clear()
        self._last = time.perf_counter()


def host_slowdown() -> float:
    """The host's slowdown now, for work that runs in another process.

    :func:`calibrate` time over ``CALIBRATION_REF_S``, averaged over
    every CPU this process may run on: the other process may sit on any
    of them, and each can be slowed by other work on its core on its
    own.  Each CPU's figure is the best of two calibrations.
    """
    cpus = os.sched_getaffinity(0)
    try:
        samples = []
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            samples.append(min(calibrate(), calibrate()))
        os.sched_setaffinity(0, cpus)
    except OSError:  # pinning not allowed: calibrate where we run
        samples = [calibrate()]
    return float(np.mean(samples)) / CALIBRATION_REF_S


def percentile(values: Sequence[float], q: float) -> float:
    if len(values) == 0:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS count (Linux ``clear_refs``).

    Called once the inputs and ground truth exist, so ``peak_rss_mb``
    measures the index rather than the input generator's temporaries.
    """
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:  # not Linux: the peak then covers the whole run
        pass


def peak_rss_mb(pid: str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def source_digest() -> str:
    """SHA-256 over ``src/`` so a run names its code without git."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".c")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def git_sha() -> str:
    try:
        # The ceiling keeps git from searching above the checkout.
        env = dict(os.environ,
                   GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> Dict[str, object]:
    """The header every result carries; fails if native did not resolve.

    A silent fall back to the vectorized engine (or another backend)
    would read as a regression or a gain, so a run without the pinned C
    kernels stops here instead of measuring.
    """
    from repro.native import registry

    status = registry.native_status()
    if status.get("backend") != "cext":
        raise SystemExit(f"the C native backend did not resolve: {status}")
    blas: Dict[str, object] = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {key: deps["blas"].get(key) for key in ("name", "version")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": "unknown"}
    return {
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "native": status,
        "platform": platform.platform(),
        "executable": sys.executable,
    }


def rate_line(values: List[float]) -> Dict[str, float]:
    """Median / p90 / p99 / count of a latency list, in milliseconds."""
    return {"n": len(values), "p50_ms": percentile(values, 50) * 1e3,
            "p90_ms": percentile(values, 90) * 1e3,
            "p99_ms": percentile(values, 99) * 1e3}
