"""C-extension backend: compile ``_kernels.c`` on demand, bind via ctypes.

This is the one compiled backend of the native engine; without a C
toolchain the engine falls back to vectorized.  The shared object is
compiled once per source
revision into a cache directory (keyed by a hash of the source), loaded
with :mod:`ctypes`, and wrapped in numpy-facing functions with the exact
signatures the dispatch table in :mod:`repro.native.registry` expects.

Compilation is strict-FP on purpose: ``-O2`` without ``-ffast-math``, so
the compiler cannot re-associate the halving-tree sums that make the
kernels bit-identical to :mod:`repro.native.ref`.

Nothing outside :mod:`repro.native` may import this module (invariant
R9): kernels are reachable only through ``engine="native"`` resolution.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from typing import Optional, Tuple

import numpy as np

#: ABI tag — must match repro_kernels_abi() in _kernels.c; bump both when
#: an exported signature changes so stale cached .so files are rejected.
KERNELS_ABI = 1

_SOURCE_PATH = os.path.join(os.path.dirname(__file__), "_kernels.c")

_i64_p = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
_f64_p = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
_u8_p = np.ctypeslib.ndpointer(dtype=np.uint8, flags="C_CONTIGUOUS")


def _cache_dir() -> str:
    root = os.environ.get("REPRO_NATIVE_CACHE")
    if not root:
        root = os.path.join(tempfile.gettempdir(),
                            f"repro-native-{os.getuid()}")
    os.makedirs(root, exist_ok=True)
    return root


def _find_compiler() -> Optional[str]:
    override = os.environ.get("REPRO_NATIVE_CC")
    candidates = [override] if override else ["cc", "gcc", "clang"]
    for name in candidates:
        if name is None:
            continue
        for path in os.environ.get("PATH", "").split(os.pathsep):
            full = os.path.join(path, name)
            if os.path.isfile(full) and os.access(full, os.X_OK):
                return full
    return None


def _compile(source_path: str) -> str:
    """Compile the kernel source into the cache dir; return the .so path."""
    with open(source_path, "rb") as fh:
        source = fh.read()
    digest = hashlib.sha256(source).hexdigest()[:16]
    so_path = os.path.join(_cache_dir(), f"repro_kernels_{digest}.so")
    if os.path.exists(so_path):
        return so_path
    cc = _find_compiler()
    if cc is None:
        raise RuntimeError("no C compiler found (set REPRO_NATIVE_CC)")
    # Strict FP flags: no -ffast-math / -Ofast, ever — see module docstring.
    tmp_path = so_path + f".tmp{os.getpid()}"
    cmd = [cc, "-O2", "-fPIC", "-shared", "-fvisibility=hidden",
           source_path, "-o", tmp_path, "-lm"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(
            f"kernel compilation failed ({' '.join(cmd)}): {proc.stderr}")
    os.replace(tmp_path, so_path)  # atomic publish for concurrent builders
    return so_path


class CExtKernels:
    """ctypes bindings over the compiled kernel library."""

    backend = "cext"

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._lib = lib
        lib.repro_kernels_abi.restype = ctypes.c_int64
        abi = int(lib.repro_kernels_abi())
        if abi != KERNELS_ABI:
            raise RuntimeError(
                f"kernel ABI mismatch: library reports {abi}, "
                f"loader expects {KERNELS_ABI}")
        lib.repro_lookup_codes.restype = None
        lib.repro_lookup_codes.argtypes = [
            _i64_p, ctypes.c_int64, ctypes.c_int64, _i64_p, ctypes.c_int64,
            _i64_p]
        lib.repro_dedup_candidates.restype = ctypes.c_int64
        lib.repro_dedup_candidates.argtypes = [
            _i64_p, _i64_p, ctypes.c_int64, ctypes.c_int64,
            ctypes.c_void_p, ctypes.c_int64, _i64_p, _i64_p, _i64_p]
        lib.repro_rank_topk.restype = ctypes.c_int
        lib.repro_rank_topk.argtypes = [
            _f64_p, ctypes.c_int64, ctypes.c_void_p, _f64_p, ctypes.c_int64,
            _f64_p, _i64_p, _i64_p, ctypes.c_int64, _i64_p, _f64_p]
        lib.repro_dm_decode.restype = None
        lib.repro_dm_decode.argtypes = [
            _f64_p, ctypes.c_int64, ctypes.c_int64, _i64_p]
        lib.repro_e8_decode.restype = None
        lib.repro_e8_decode.argtypes = [
            _f64_p, ctypes.c_int64, ctypes.c_int64, _i64_p]

    # -- kernel wrappers ---------------------------------------------------

    def lookup_codes(self, bucket_codes: np.ndarray,
                     codes: np.ndarray) -> np.ndarray:
        bucket_codes = np.ascontiguousarray(bucket_codes, dtype=np.int64)
        codes = np.ascontiguousarray(codes, dtype=np.int64)
        r = codes.shape[0]
        bidx = np.empty(r, dtype=np.int64)
        self._lib.repro_lookup_codes(bucket_codes, bucket_codes.shape[0],
                                     codes.shape[1], codes, r, bidx)
        return bidx

    def dedup_candidates(self, local_ids: np.ndarray, qidx: np.ndarray,
                         nq: int, deleted: Optional[np.ndarray] = None,
                         ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        local_ids = np.ascontiguousarray(local_ids, dtype=np.int64)
        qidx = np.ascontiguousarray(qidx, dtype=np.int64)
        n = local_ids.shape[0]
        out_ids = np.empty(n, dtype=np.int64)
        out_qidx = np.empty(n, dtype=np.int64)
        counts = np.zeros(nq, dtype=np.int64)
        if deleted is not None:
            deleted = np.ascontiguousarray(deleted, dtype=np.uint8)
            del_ptr = deleted.ctypes.data_as(ctypes.c_void_p)
            del_len = deleted.shape[0]
        else:
            del_ptr, del_len = None, 0
        total = int(self._lib.repro_dedup_candidates(
            local_ids, qidx, n, int(nq), del_ptr, del_len,
            out_ids, out_qidx, counts))
        if total < 0:
            raise MemoryError("dedup_candidates scratch allocation failed")
        return out_ids[:total], out_qidx[:total], counts

    def rank_topk(self, data: np.ndarray, sq_norms: Optional[np.ndarray],
                  queries: np.ndarray, q_sq: np.ndarray, cand: np.ndarray,
                  counts: np.ndarray, k: int,
                  ) -> Tuple[np.ndarray, np.ndarray]:
        data = np.ascontiguousarray(data, dtype=np.float64)
        queries = np.ascontiguousarray(queries, dtype=np.float64)
        q_sq = np.ascontiguousarray(q_sq, dtype=np.float64)
        cand = np.ascontiguousarray(cand, dtype=np.int64)
        counts = np.ascontiguousarray(counts, dtype=np.int64)
        nq = counts.shape[0]
        offsets = np.zeros(nq + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        sel = np.full((nq, int(k)), -1, dtype=np.int64)
        dists = np.full((nq, int(k)), np.inf, dtype=np.float64)
        if sq_norms is not None:
            sq_norms = np.ascontiguousarray(sq_norms, dtype=np.float64)
            norms_ptr = sq_norms.ctypes.data_as(ctypes.c_void_p)
        else:
            norms_ptr = None
        rc = self._lib.repro_rank_topk(
            data, data.shape[1], norms_ptr, queries, nq, q_sq, cand,
            offsets, int(k), sel, dists)
        if rc != 0:
            raise MemoryError("rank_topk scratch allocation failed")
        return sel, dists

    def dm_decode(self, y: np.ndarray) -> np.ndarray:
        y = np.ascontiguousarray(y, dtype=np.float64)
        codes = np.empty(y.shape, dtype=np.int64)
        self._lib.repro_dm_decode(y, y.shape[0], y.shape[1], codes)
        return codes

    def e8_decode(self, y: np.ndarray) -> np.ndarray:
        y = np.ascontiguousarray(y, dtype=np.float64)
        n, padded = y.shape
        if padded % 8:
            raise ValueError(f"e8_decode needs a multiple-of-8 width, "
                             f"got {padded}")
        codes = np.empty((n, padded), dtype=np.int64)
        self._lib.repro_e8_decode(y, n, padded // 8, codes)
        return codes


def load() -> CExtKernels:
    """Compile (if needed) and bind the C kernel backend."""
    so_path = _compile(_SOURCE_PATH)
    return CExtKernels(ctypes.CDLL(so_path))
