"""Native-tier tests (DESIGN.md §12): parity matrix, decoders, fallback.

Three contracts:

1. **Bit-parity matrix** — ``engine="native"`` returns *identical*
   indices and distances to the vectorized and scalar engines across
   lattices × hierarchy × multiprobe × ``max_batch_rows`` × ``n_jobs``.
   When the C backend cannot be built the native engine degrades to the
   vectorized plan, so the parity assertions hold either way; the CI
   ``native`` job pins ``REPRO_NATIVE_BACKEND=cext`` and first asserts
   that the C backend resolved, so the compiled path itself is exercised
   there instead of being skipped.
2. **Decoder properties** — the compiled E8/Dm decoders match the
   pure-numpy references in ``repro.lattice`` on random inputs *and* on
   the boundary grid (exact integers, half-integers, quarter-point
   D8-vs-coset ties) where any summation or rounding divergence shows.
3. **Graceful fallback** — with backends disabled, ``engine="native"``
   answers bit-identically to vectorized with exactly one
   ``RuntimeWarning`` and one ``repro_native_fallbacks_total`` bump.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.bilevel import BiLevelLSH
from repro.core.config import BiLevelConfig
from repro.lattice.dm import decode_dm
from repro.lattice.e8 import decode_e8
from repro.lsh.index import StandardLSH
from repro.native import registry
from repro.obs.registry import MetricsRegistry

N_QUERIES = 19
DIM = 16
K = 8


@pytest.fixture(scope="module")
def dataset():
    return np.random.default_rng(31).standard_normal((600, DIM))


@pytest.fixture(scope="module")
def queries(dataset):
    q = np.random.default_rng(32).standard_normal((N_QUERIES, DIM))
    # Row 0 is an indexed point verbatim: its self-distance must cancel
    # to exactly 0.0, which only happens when all three distance terms
    # share the halving-tree summation order (see repro.native.ref).
    q[0] = dataset[17]
    return q


@pytest.fixture(scope="module")
def kernels():
    """The resolved compiled backend, skipping tests that require one."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        loaded = registry.load_kernels()
    if loaded is None:
        pytest.skip("no compiled native backend available "
                    f"(status: {registry.native_status()['errors']})")
    return loaded


#: Index configurations spanning the parity matrix dimensions the native
#: kernels touch: lattice decoder, multiprobe expansion, hierarchy
#: escalation (integer threshold — shard-invariant by construction).
INDEX_CONFIGS = {
    "zm": dict(lattice="zm"),
    "zm-probes": dict(lattice="zm", n_probes=4),
    "e8-hier": dict(lattice="e8", hierarchy=True),
    "dm-probes-hier": dict(lattice="dm", n_probes=2, hierarchy=True),
}


@pytest.fixture(scope="module")
def index_cache(dataset):
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = StandardLSH(n_tables=6, bucket_width=6.0, seed=5,
                                      **INDEX_CONFIGS[name]).fit(dataset)
        return cache[name]

    return get


def assert_same_results(a, b, exact=True):
    """Engine-parity check.

    ``exact=True`` is the native/vectorized contract: bitwise-identical
    distances (compared through the raw float64 payloads, inf-safe).
    The scalar engine is the seed reference with its own summation
    order, so scalar comparisons drop to ids-exact + allclose distances
    (same convention as ``tests/test_query_engine.py``).
    """
    ids_a, dists_a, stats_a = a
    ids_b, dists_b, stats_b = b
    assert np.array_equal(ids_a, ids_b)
    if exact:
        assert np.array_equal(dists_a.view(np.int64), dists_b.view(np.int64))
    else:
        np.testing.assert_allclose(dists_a, dists_b, equal_nan=True)
    assert np.array_equal(stats_a.n_candidates, stats_b.n_candidates)
    assert np.array_equal(stats_a.escalated, stats_b.escalated)


# ----------------------------------------------------------- parity matrix


class TestParityMatrix:
    @pytest.mark.parametrize("config", sorted(INDEX_CONFIGS))
    @pytest.mark.parametrize("engine", ["scalar", "native"])
    @pytest.mark.parametrize("rows", [None, 5])
    def test_standard_engines_agree(self, index_cache, queries, config,
                                    engine, rows):
        index = index_cache(config)
        kwargs = {}
        if INDEX_CONFIGS[config].get("hierarchy"):
            kwargs["hierarchy_threshold"] = 12
        base = index.query_batch(queries, K, **kwargs)
        other = index.query_batch(queries, K, engine=engine,
                                  max_batch_rows=rows, **kwargs)
        assert_same_results(base, other, exact=(engine == "native"))

    @pytest.mark.parametrize("n_jobs", [1, 2])
    @pytest.mark.parametrize("rows", [None, 7])
    def test_bilevel_native_parity(self, dataset, queries, n_jobs, rows):
        cfg = BiLevelConfig(n_groups=4, n_tables=6, bucket_width=6.0,
                            n_jobs=n_jobs, seed=5)
        index = BiLevelLSH(cfg).fit(dataset)
        base = index.query_batch(queries, K)
        native = index.query_batch(queries, K, engine="native",
                                   max_batch_rows=rows)
        assert_same_results(base, native)

    def test_self_distance_is_exactly_zero(self, index_cache, queries):
        # Query row 0 is dataset row 17 verbatim; every engine must rank
        # it first at bitwise 0.0 (the three-term cancellation contract).
        index = index_cache("zm")
        for engine in ("vectorized", "scalar", "native"):
            ids, dists, _ = index.query_batch(queries, K, engine=engine)
            assert ids[0, 0] == 17
            assert dists[0, 0] == 0.0

    def test_unknown_engine_raises(self, index_cache, queries):
        with pytest.raises(ValueError, match="engine must be one of"):
            index_cache("zm").query_batch(queries, K, engine="warp")


# ------------------------------------------------------- compiled decoders


def _e8_reference(x):
    """Integer codes (half-integer units) from the pure-numpy decoder."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    codes = np.empty(x.shape, dtype=np.int64)
    for b in range(x.shape[1] // 8):
        block = x[:, b * 8:(b + 1) * 8]
        codes[:, b * 8:(b + 1) * 8] = np.round(
            decode_e8(block) * 2.0).astype(np.int64)
    return codes


finite_row = st.lists(
    st.floats(min_value=-100.0, max_value=100.0,
              allow_nan=False, allow_infinity=False),
    min_size=8, max_size=8)

# The adversarial grid: exact integers, half-integers and quarter points
# — where D8 rounding ties and the D8-vs-half-coset comparison sit on
# exact-equality boundaries.
quarter_row = st.lists(
    st.integers(min_value=-12, max_value=12).map(lambda i: i / 4.0),
    min_size=8, max_size=8)


class TestCompiledE8Decoder:
    @settings(max_examples=150, deadline=None)
    @given(row=finite_row)
    def test_matches_reference_on_random_rows(self, kernels, row):
        x = np.array([row], dtype=np.float64)
        assert np.array_equal(kernels.e8_decode(x), _e8_reference(x))

    @settings(max_examples=150, deadline=None)
    @given(row=quarter_row)
    def test_matches_reference_on_tie_boundaries(self, kernels, row):
        x = np.array([row], dtype=np.float64)
        assert np.array_equal(kernels.e8_decode(x), _e8_reference(x))

    def test_boundary_vectors_batch(self, kernels):
        # Deterministic corner cases in one batch: the all-ties rows.
        rows = np.array([
            [0.0] * 8,            # exact D8 point
            [0.5] * 8,            # exact half-coset point
            [0.25] * 8,           # equidistant between the two cosets
            [-0.25] * 8,
            [0.75] * 8,
            [0.5, -0.5, 0.5, -0.5, 0.5, -0.5, 0.5, -0.5],
            [1.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5],
            [0.25, -0.25, 0.25, -0.25, 0.25, -0.25, 0.25, -0.25],
        ], dtype=np.float64)
        assert np.array_equal(kernels.e8_decode(rows), _e8_reference(rows))

    def test_multiblock_matches_reference(self, kernels):
        x = np.random.default_rng(77).standard_normal((60, 24)) * 3.0
        assert np.array_equal(kernels.e8_decode(x), _e8_reference(x))

    def test_rejects_non_multiple_of_8(self, kernels):
        with pytest.raises(ValueError):
            kernels.e8_decode(np.zeros((3, 7), dtype=np.float64))

    @settings(max_examples=100, deadline=None)
    @given(row=st.lists(
        st.floats(min_value=-50.0, max_value=50.0,
                  allow_nan=False, allow_infinity=False),
        min_size=6, max_size=6))
    def test_dm_decode_matches_reference(self, kernels, row):
        x = np.array([row], dtype=np.float64)
        expected = decode_dm(x).astype(np.int64)
        assert np.array_equal(kernels.dm_decode(x), expected)

    def test_dm_decode_half_integer_ties(self, kernels):
        grid = np.array(np.meshgrid([-0.5, 0.0, 0.5], [-0.5, 0.5],
                                    [-1.5, 1.5])).T.reshape(-1, 3)
        expected = decode_dm(grid).astype(np.int64)
        assert np.array_equal(kernels.dm_decode(grid), expected)


# ------------------------------------------------------------ observability


class TestNativeObservability:
    def test_native_batches_counted(self, kernels, index_cache, queries):
        reg = MetricsRegistry()
        obs.enable(registry=reg)
        try:
            index_cache("zm").query_batch(queries, K, engine="native")
        finally:
            obs.disable()
        snap = reg.snapshot()
        assert "repro_native_batches_total" in snap
        samples = snap["repro_native_batches_total"]["samples"]
        assert any(s["labels"].get("backend") == kernels.backend
                   for s in samples)

    def test_native_status_shape(self):
        status = registry.native_status()
        assert set(status) == {"backend", "setup_seconds", "errors",
                               "engines"}
        assert status["engines"] == list(registry.REGISTERED_ENGINES)


# ---------------------------------------------------------------- fallback


class TestFallback:
    def test_disabled_backend_degrades_loudly_once(self, monkeypatch,
                                                   dataset, queries):
        monkeypatch.setenv("REPRO_NATIVE_BACKEND", "none")
        registry.reset()
        try:
            reg = MetricsRegistry()
            obs.enable(registry=reg)
            try:
                index = StandardLSH(n_tables=4, bucket_width=6.0,
                                    seed=5).fit(dataset)
                base = index.query_batch(queries, K)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    first = index.query_batch(queries, K, engine="native")
                    second = index.query_batch(queries, K, engine="native")
            finally:
                obs.disable()
            relevant = [w for w in caught
                        if issubclass(w.category, RuntimeWarning)
                        and "native kernels unavailable" in str(w.message)]
            assert len(relevant) == 1, "fallback must warn exactly once"
            assert_same_results(base, first)
            assert_same_results(base, second)
            snap = reg.snapshot()
            assert "repro_native_fallbacks_total" in snap
        finally:
            registry.reset()

    @pytest.mark.parametrize("pin", ["warp9", "numba"])
    def test_invalid_pin_is_reported_not_fatal(self, monkeypatch, pin):
        monkeypatch.setenv("REPRO_NATIVE_BACKEND", pin)
        registry.reset()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert registry.load_kernels() is None
                assert registry.load_kernels() is None
            relevant = [w for w in caught
                        if issubclass(w.category, RuntimeWarning)
                        and "native kernels unavailable" in str(w.message)]
            assert len(relevant) == 1, "invalid pin must warn exactly once"
            assert "config" in registry.native_status()["errors"]
        finally:
            registry.reset()
