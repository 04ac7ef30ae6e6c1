"""Differential determinism harness for the dataset-generation runtime.

The core guarantee under test: a dataset built serially, built with a
4-worker pool, and re-loaded from a warm cache are *byte-identical* —
graph adjacency, node features, labels, masks, injected-fault identities,
failure logs, and the canonical train/val split all fingerprint to one
SHA-256 digest.  Exercised on two benchmarks (aes_like and tate_like
generators) and on a random-partition (``Rand-k``) configuration, matching
the augmentation matrix the experiments fan out over.
"""

from __future__ import annotations

import pytest

from repro.data import DesignConfig, build_dataset, prepare_design
from repro.data.datasets import chunk_seed
from repro.netlist import GeneratorSpec
from repro.obs import SpanTracer
from repro.runtime import (
    DatasetRequest,
    DatasetRuntime,
    RuntimeStats,
    configure,
    fingerprints_identical,
    get_runtime,
    reset_runtime,
    sample_set_fingerprint,
)

#: Enough samples for 3 chunks (16 + 16 + 8) at the default chunk size.
N_SAMPLES = 40
SEED = 4242


@pytest.fixture(scope="module")
def tate_rand_design():
    """Second benchmark flavor under a random-partition (Rand-k) config."""
    spec = GeneratorSpec("tate_small", "tate_like", 160, 20, 10, 10, seed=5)
    return prepare_design(
        spec,
        DesignConfig.standard("Rand-1"),
        n_chains=4,
        chains_per_channel=2,
        max_patterns=64,
    )


@pytest.fixture(autouse=True)
def _isolate_global_runtime():
    reset_runtime()
    yield
    reset_runtime()


@pytest.fixture(params=["aes-Syn-1", "tate-Rand-1"])
def design(request, prepared, tate_rand_design):
    return prepared if request.param == "aes-Syn-1" else tate_rand_design


def test_serial_matches_plain_build(design):
    """The runtime with workers=1 reproduces the reference serial build."""
    rt = DatasetRuntime(workers=1)
    via_runtime = rt.build_dataset(design, "bypass", N_SAMPLES, SEED)
    reference = build_dataset(design, "bypass", N_SAMPLES, SEED)
    assert fingerprints_identical([via_runtime, reference])


def test_four_workers_byte_identical_to_serial(design):
    serial = DatasetRuntime(workers=1).build_dataset(design, "bypass", N_SAMPLES, SEED)
    par = DatasetRuntime(workers=4).build_dataset(design, "bypass", N_SAMPLES, SEED)
    assert sample_set_fingerprint(par) == sample_set_fingerprint(serial)


def test_warm_cache_byte_identical_and_skips_simulation(design, tmp_path):
    cold_stats = RuntimeStats()
    cold = DatasetRuntime(workers=1, cache_dir=tmp_path, stats=cold_stats)
    first = cold.build_dataset(design, "bypass", N_SAMPLES, SEED)
    assert cold_stats.counters.get("dataset.chunks_built", 0) == 3

    warm_stats, warm_tracer = RuntimeStats(), SpanTracer()
    warm = DatasetRuntime(workers=1, cache_dir=tmp_path, stats=warm_stats,
                          tracer=warm_tracer)
    second = warm.build_dataset(design, "bypass", N_SAMPLES, SEED)
    assert sample_set_fingerprint(second) == sample_set_fingerprint(first)
    # No injection/simulation ran on the warm path — every chunk was a hit.
    assert warm_stats.counters.get("dataset.chunks_built", 0) == 0
    assert warm_stats.counters.get("cache.sample_chunk.hit", 0) == 3
    assert warm_tracer.export()["dataset"]["calls"] == 1
    assert "dataset.chunk" not in warm_tracer.export()


def test_parallel_warm_cache_matches_cold_serial(design, tmp_path):
    """workers=4 writing the cache, then a warm reload: all three identical."""
    par = DatasetRuntime(workers=4, cache_dir=tmp_path)
    built = par.build_dataset(design, "compacted", N_SAMPLES, SEED)
    warm = DatasetRuntime(workers=1, cache_dir=tmp_path).build_dataset(
        design, "compacted", N_SAMPLES, SEED
    )
    serial = DatasetRuntime(workers=1).build_dataset(design, "compacted", N_SAMPLES, SEED)
    assert fingerprints_identical([built, warm, serial])


def test_chunk_prefix_stability(prepared):
    """Growing a dataset re-uses the identical leading chunks.

    Chunk seeds depend only on (master seed, unit identity), so the first 16
    samples of a 40-sample build equal a 16-sample build outright — the
    property that makes cached chunks reusable across dataset sizes.
    """
    small = DatasetRuntime(workers=1).build_dataset(prepared, "bypass", 16, SEED)
    large = DatasetRuntime(workers=1).build_dataset(prepared, "bypass", N_SAMPLES, SEED)
    prefix = type(small)(design=small.design, mode=small.mode, items=large.items[:16])
    assert sample_set_fingerprint(prefix) == sample_set_fingerprint(small)


def test_chunk_seed_is_worker_invariant(prepared, tate_rand_design):
    """Derived seeds hang off unit identity alone, and never collide here."""
    seeds = {
        chunk_seed(design, mode, "single", SEED, i)
        for design in (prepared, tate_rand_design)
        for mode in ("bypass", "compacted")
        for i in range(3)
    }
    assert len(seeds) == 12  # all distinct
    assert chunk_seed(prepared, "bypass", "single", SEED, 0) == chunk_seed(
        prepared, "bypass", "single", SEED, 0
    )


def test_build_datasets_matrix_matches_individual_builds(prepared, tate_rand_design):
    """One fan-out over a (design, request) matrix equals per-design builds."""
    orders = [
        (prepared, DatasetRequest("bypass", 24, SEED)),
        (tate_rand_design, DatasetRequest("bypass", 24, SEED + 1)),
    ]
    batch = DatasetRuntime(workers=4).build_datasets(orders)
    solo = [
        DatasetRuntime(workers=1).build_dataset(d, r.mode, r.n_samples, r.seed)
        for d, r in orders
    ]
    for got, want in zip(batch, solo):
        assert sample_set_fingerprint(got) == sample_set_fingerprint(want)


def test_prepared_design_cache_roundtrip_builds_identical_datasets(prepared, tmp_path):
    """A design re-loaded from the artifact cache is behaviorally identical."""
    rt = DatasetRuntime(workers=1, cache_dir=tmp_path)
    spec = prepared.provenance["spec"]
    kwargs = dict(n_chains=4, chains_per_channel=2, max_patterns=96)
    stored = rt.prepare(spec, DesignConfig.standard("Syn-1"), **kwargs)
    reloaded = DatasetRuntime(workers=1, cache_dir=tmp_path).prepare(
        spec, DesignConfig.standard("Syn-1"), **kwargs
    )
    a = DatasetRuntime(workers=1).build_dataset(stored, "bypass", 16, SEED)
    b = DatasetRuntime(workers=1).build_dataset(reloaded, "bypass", 16, SEED)
    assert sample_set_fingerprint(a) == sample_set_fingerprint(b)


def test_unknown_kind_rejected(prepared):
    with pytest.raises(ValueError, match="unknown dataset kind"):
        DatasetRuntime(workers=1).build_dataset(prepared, "bypass", 4, SEED, kind="exotic")


def test_global_runtime_configure_and_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_WORKERS", "3")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
    reset_runtime()
    rt = get_runtime()
    assert rt.workers == 3
    assert rt.cache is not None
    # Explicit configure() overrides the environment.
    rt2 = configure(workers=1, cache_dir=None)
    assert get_runtime() is rt2
    assert rt2.workers == 1
    # An empty env var means "no cache", not a cache rooted at "".
    monkeypatch.setenv("REPRO_CACHE_DIR", "")
    reset_runtime()
    assert get_runtime().cache is None
