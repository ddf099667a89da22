"""Numpy reference implementations of the native-kernel numeric spec.

The compiled kernels (:mod:`repro.native.kernels_cext`) promise
**bit-identical** results to
the vectorized engine.  Floating-point summation is not associative, so
"the same math" is not enough — both sides must execute the *same
summation tree*.  This module is that tree, written once in numpy:

- the vectorized engine calls :func:`tree_rowdot` for its fused-rank dot
  products (``repro.lsh.index._rank_shortlists``) and the E8 decoder
  calls :func:`tree_sq_dist` for its D8-vs-half-coset comparison;
- the C kernels replicate the identical pairwise power-of-two halving
  order, element by element.

Anything here must stay importable with numpy alone — the reference spec
is what the no-compiler fallback runs on.
"""

from __future__ import annotations

import numpy as np

__all__ = ["tree_rowdot", "tree_sq_dist", "dedup_candidates_ref",
           "lookup_codes_ref", "rank_topk_ref"]


def tree_rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot product with a fixed halving-tree summation order.

    The ``d`` products of each row are padded with zeros to the next
    power of two ``P`` and reduced by repeated halving:
    ``x[i] <- x[i] + x[i + w]`` for ``w = P/2, P/4, ..., 1``.  Every
    native backend implements this exact order, which is what makes
    compiled distances bit-identical to the numpy reference.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    prod = a * b
    n, d = prod.shape
    if d == 0:
        return np.zeros(n, dtype=np.float64)
    pw = 1 << (d - 1).bit_length()
    if pw != d:
        padded = np.zeros((n, pw), dtype=np.float64)
        padded[:, :d] = prod
        prod = padded
    w = pw
    while w > 1:
        w >>= 1
        prod = prod[:, :w] + prod[:, w:2 * w]
    return np.ascontiguousarray(prod[:, 0])


def tree_sq_dist(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise squared distance ``||x - y||^2`` with tree summation.

    Used by the E8 decoder's nearest-coset comparison so the compiled
    decoders can reproduce the comparison bit for bit.
    """
    err = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    return tree_rowdot(err, err)


# --------------------------------------------------------------------------
# Pure-numpy references for the remaining kernels.  These are *not* hot
# paths (the vectorized engine has its own equivalents); they exist so the
# kernel contract has an executable, dependency-free specification that
# the parity tests can diff every backend against.
# --------------------------------------------------------------------------


def lookup_codes_ref(bucket_codes: np.ndarray,
                     codes: np.ndarray) -> np.ndarray:
    """Reference for ``lookup_codes``: lexicographic binary search.

    ``bucket_codes`` is the ``(B, M)`` lexicographically sorted array of
    distinct bucket codes; returns the bucket index per query row, ``-1``
    for rows with no bucket.
    """
    from repro.lsh.table import pack_codes  # local: avoid import cycle

    bucket_codes = np.ascontiguousarray(bucket_codes, dtype=np.int64)
    codes = np.ascontiguousarray(np.atleast_2d(codes), dtype=np.int64)
    keys = pack_codes(bucket_codes)
    query_keys = pack_codes(codes)
    if keys.size == 0:
        return np.full(codes.shape[0], -1, dtype=np.int64)
    pos = np.searchsorted(keys, query_keys).astype(np.int64)
    clipped = np.minimum(pos, keys.size - 1)
    found = (pos < keys.size) & (keys[clipped] == query_keys)
    return np.where(found, clipped, np.int64(-1))


def dedup_candidates_ref(local_ids: np.ndarray, qidx: np.ndarray, nq: int,
                         deleted: "np.ndarray | None" = None,
                         ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Reference for ``dedup_candidates``: tombstone filter + (q, id) dedup.

    Matches ``StandardLSH._dedup_per_query``: drop tombstoned ids, sort
    by ``(query, id)``, drop per-query duplicates, return
    ``(ids, qidx, counts)`` with ``counts`` per query.
    """
    local_ids = np.asarray(local_ids, dtype=np.int64)
    qidx = np.asarray(qidx, dtype=np.int64)
    if deleted is not None and local_ids.size:
        drop = np.zeros(local_ids.size, dtype=bool)
        in_mask = local_ids < deleted.shape[0]
        drop[in_mask] = deleted[local_ids[in_mask]]
        local_ids = local_ids[~drop]
        qidx = qidx[~drop]
    if local_ids.size:
        order = np.lexsort((local_ids, qidx))
        local_ids = local_ids[order]
        qidx = qidx[order]
        keep = np.ones(local_ids.size, dtype=bool)
        keep[1:] = (qidx[1:] != qidx[:-1]) | (local_ids[1:] != local_ids[:-1])
        local_ids = local_ids[keep]
        qidx = qidx[keep]
    counts = np.bincount(qidx, minlength=nq).astype(np.int64)
    return local_ids, qidx, counts


def rank_topk_ref(data: np.ndarray, sq_norms: "np.ndarray | None",
                  queries: np.ndarray, q_sq: np.ndarray,
                  cand: np.ndarray, counts: np.ndarray, k: int,
                  ) -> "tuple[np.ndarray, np.ndarray]":
    """Reference for ``rank_topk``: fused cached-norm top-k ranking.

    Returns ``(sel, dists)`` of shape ``(nq, k)``: ``sel`` holds *local*
    candidate row indices (``-1`` pad), ``dists`` the matching distances
    (``inf`` pad), ordered by ``(distance, id)`` ascending per query —
    the vectorized engine's tie-break convention.
    """
    nq = int(counts.shape[0])
    sel = np.full((nq, k), -1, dtype=np.int64)
    dists_out = np.full((nq, k), np.inf, dtype=np.float64)
    if cand.size == 0:
        return sel, dists_out
    qidx = np.repeat(np.arange(nq, dtype=np.int64), counts)
    rows = data[cand]
    dots = tree_rowdot(rows, queries[qidx])
    if sq_norms is None:
        row_sq = tree_rowdot(rows, rows)
    else:
        row_sq = sq_norms[cand]
    d2 = row_sq - 2.0 * dots + q_sq[qidx]
    np.maximum(d2, 0.0, out=d2)
    dists = np.sqrt(d2)
    order = np.lexsort((cand, dists, qidx))
    offsets = np.cumsum(counts) - counts
    take = np.minimum(counts, k)
    rel = np.arange(int(take.sum()), dtype=np.int64)
    rel -= np.repeat(np.cumsum(take) - take, take)
    pick = order[np.repeat(offsets, take) + rel]
    rows_out = np.repeat(np.arange(nq, dtype=np.int64), take)
    sel[rows_out, rel] = cand[pick]
    dists_out[rows_out, rel] = dists[pick]
    return sel, dists_out
