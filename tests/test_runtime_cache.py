"""Unit tests for the dataset-generation runtime's building blocks.

Covers seed derivation and the chunk grid (:mod:`repro.runtime.seeds`), the
content-addressed artifact cache (:mod:`repro.runtime.cache`), the stats
sink (:mod:`repro.runtime.instrument`), and the canonical fingerprint
helpers (:mod:`repro.runtime.fingerprint`).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.data.datagen import DesignConfig
from repro.obs import SpanTracer
from repro.runtime import (
    ArtifactCache,
    DatasetRequest,
    RuntimeStats,
    cache_key_hash,
    canonical_key,
    chunk_plan,
    derive_seed,
    deterministic_split,
)


# ------------------------------------------------------------------- seeds
def test_derive_seed_is_deterministic_and_sensitive():
    a = derive_seed(7, "AES", "Syn-1", "bypass", 0)
    assert a == derive_seed(7, "AES", "Syn-1", "bypass", 0)
    # Any part changing changes the stream.
    assert a != derive_seed(8, "AES", "Syn-1", "bypass", 0)
    assert a != derive_seed(7, "Tate", "Syn-1", "bypass", 0)
    assert a != derive_seed(7, "AES", "Rand-0", "bypass", 0)
    assert a != derive_seed(7, "AES", "Syn-1", "compacted", 0)
    assert a != derive_seed(7, "AES", "Syn-1", "bypass", 1)


def test_derive_seed_fits_numpy_seed_range():
    for i in range(100):
        s = derive_seed(i, "x", i * 3)
        assert 0 <= s < 2 ** 63
        np.random.default_rng(s)  # must be accepted


def test_derive_seed_no_concat_collisions():
    # ("ab", "c") must not collide with ("a", "bc").
    assert derive_seed(0, "ab", "c") != derive_seed(0, "a", "bc")


def test_chunk_plan_covers_exactly():
    for n in (0, 1, 15, 16, 17, 48, 100):
        plan = chunk_plan(n, 16)
        assert sum(size for _i, size in plan) == n
        assert [i for i, _s in plan] == list(range(len(plan)))
        assert all(1 <= size <= 16 for _i, size in plan)
        if plan:
            assert all(size == 16 for _i, size in plan[:-1])


def test_chunk_plan_rejects_bad_input():
    with pytest.raises(ValueError):
        chunk_plan(-1, 16)
    with pytest.raises(ValueError):
        chunk_plan(10, 0)


# ----------------------------------------------------------------- cache key
def test_canonical_key_is_order_independent():
    k1 = canonical_key({"b": 2, "a": 1, "nested": {"y": 0, "x": [1, 2]}})
    k2 = canonical_key({"a": 1, "nested": {"x": [1, 2], "y": 0}, "b": 2})
    assert k1 == k2
    assert cache_key_hash({"b": 2, "a": 1}) == cache_key_hash({"a": 1, "b": 2})


def test_canonical_key_flattens_dataclasses_with_type_tag():
    cfg = DesignConfig.standard("Rand-3")
    text = canonical_key({"config": cfg})
    assert "DesignConfig" in text  # __type__ tag present
    assert "103" in text  # partition_seed captured
    # Distinct configs hash differently.
    assert cache_key_hash({"c": cfg}) != cache_key_hash(
        {"c": DesignConfig.standard("Rand-4")}
    )


def test_cache_key_hash_is_stable_hex():
    h = cache_key_hash({"artifact": "design", "version": 1})
    assert h == cache_key_hash({"version": 1, "artifact": "design"})
    assert len(h) == 64
    int(h, 16)


# -------------------------------------------------------------------- cache
def test_cache_roundtrip_and_layout(tmp_path):
    stats = RuntimeStats()
    cache = ArtifactCache(tmp_path / "c", stats=stats)
    key = {"artifact": "unit", "x": 1}
    obj, hit = cache.get("unit", key)
    assert not hit and obj is None
    payload = {"arr": np.arange(5), "s": "hello"}
    cache.put("unit", key, payload)
    back, hit = cache.get("unit", key)
    assert hit
    assert np.array_equal(back["arr"], payload["arr"]) and back["s"] == "hello"
    assert stats.cache_hits == 1 and stats.cache_misses == 1
    # Two-level fan-out layout plus a readable sidecar.
    digest = cache_key_hash(key)
    pkl = tmp_path / "c" / "unit" / digest[:2] / f"{digest}.pkl"
    assert pkl.exists()
    assert pkl.with_suffix(".key.json").exists() or pkl.parent.joinpath(
        f"{digest}.key.json"
    ).exists()


def test_cache_corrupt_entry_is_a_miss(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = {"artifact": "unit", "x": 2}
    cache.put("unit", key, [1, 2, 3])
    digest = cache_key_hash(key)
    pkl = tmp_path / "unit" / digest[:2] / f"{digest}.pkl"
    pkl.write_bytes(b"not a pickle")
    obj, hit = cache.get("unit", key)
    assert not hit and obj is None
    assert not pkl.exists()  # corrupt entry evicted
    # And a fresh put works again.
    cache.put("unit", key, [1, 2, 3])
    assert cache.get("unit", key)[1]


def test_cache_entries_size_and_clear(tmp_path):
    cache = ArtifactCache(tmp_path)
    for i in range(3):
        cache.put("kind_a", {"i": i}, list(range(i)))
    cache.put("kind_b", {"i": 0}, "x")
    assert cache.entries() == {"kind_a": 3, "kind_b": 1}
    assert cache.size_bytes() > 0
    assert cache.clear() == 4
    assert cache.entries() == {}
    assert cache.size_bytes() == 0


def test_cache_distinct_keys_do_not_collide(tmp_path):
    cache = ArtifactCache(tmp_path)
    cache.put("unit", {"seed": 1}, "one")
    cache.put("unit", {"seed": 2}, "two")
    assert cache.get("unit", {"seed": 1})[0] == "one"
    assert cache.get("unit", {"seed": 2})[0] == "two"


# ------------------------------------------------- cache failure recovery
def _entry_paths(root, kind, key):
    digest = cache_key_hash(key)
    pkl = root / kind / digest[:2] / f"{digest}.pkl"
    return pkl, pkl.with_suffix(".key.json")


def test_cache_truncated_payload_evicts_both_halves(tmp_path):
    stats = RuntimeStats()
    cache = ArtifactCache(tmp_path, stats=stats)
    key = {"artifact": "unit", "x": 3}
    cache.put("unit", key, list(range(100)))
    pkl, sidecar = _entry_paths(tmp_path, "unit", key)
    pkl.write_bytes(pkl.read_bytes()[: pkl.stat().st_size // 2])  # torn write
    obj, hit = cache.get("unit", key)
    assert not hit and obj is None
    assert stats.counters["cache.unit.corrupt"] == 1
    assert not pkl.exists() and not sidecar.exists()  # no half-entry left


def test_cache_bit_flip_is_caught_by_payload_digest(tmp_path):
    """A flipped bit mid-pickle may unpickle *silently wrong*; the sidecar's
    payload hash must catch it before the bytes reach a build."""
    stats = RuntimeStats()
    cache = ArtifactCache(tmp_path, stats=stats)
    key = {"artifact": "unit", "x": 4}
    cache.put("unit", key, np.arange(256, dtype=np.uint8))
    pkl, _sidecar = _entry_paths(tmp_path, "unit", key)
    data = bytearray(pkl.read_bytes())
    data[len(data) // 2] ^= 0x40  # same length, one bad bit
    pkl.write_bytes(bytes(data))
    obj, hit = cache.get("unit", key)
    assert not hit and obj is None
    assert stats.counters["cache.unit.corrupt"] == 1


def test_cache_missing_sidecar_is_a_miss_and_evicts(tmp_path):
    stats = RuntimeStats()
    cache = ArtifactCache(tmp_path, stats=stats)
    key = {"artifact": "unit", "x": 5}
    cache.put("unit", key, "payload")
    pkl, sidecar = _entry_paths(tmp_path, "unit", key)
    sidecar.unlink()
    obj, hit = cache.get("unit", key)
    assert not hit and obj is None
    assert stats.counters["cache.unit.desynced"] == 1
    assert not pkl.exists()


def test_cache_desynced_sidecar_is_a_miss(tmp_path):
    cache = ArtifactCache(tmp_path)
    key = {"artifact": "unit", "x": 6}
    cache.put("unit", key, "payload")
    pkl, sidecar = _entry_paths(tmp_path, "unit", key)
    # Sidecar claims a different key: the record lies about the bytes.
    other_doc = ArtifactCache._sidecar_doc(canonical_key({"x": 99}), b"payload")
    sidecar.write_bytes(other_doc)
    assert cache.get("unit", key) == (None, False)
    assert not pkl.exists() and not sidecar.exists()


def test_cache_put_leaves_no_tempfiles(tmp_path):
    cache = ArtifactCache(tmp_path)
    for i in range(5):
        cache.put("unit", {"i": i}, list(range(i)))
    assert not list(tmp_path.rglob("*.tmp"))


def test_gc_orphans_respects_age_guard(tmp_path):
    import os

    cache = ArtifactCache(tmp_path)
    cache.put("unit", {"x": 1}, "v")
    fresh = tmp_path / "unit" / "fresh.tmp"
    stale = tmp_path / "unit" / "stale.tmp"
    fresh.write_bytes(b"x")
    stale.write_bytes(b"x")
    os.utime(stale, (0, 0))  # ancient mtime
    assert cache.gc_orphans(max_age_s=3600.0) == 1  # only the stale one
    assert fresh.exists() and not stale.exists()
    assert cache.gc_orphans(max_age_s=0.0) == 1  # zero age collects the rest
    assert cache.get("unit", {"x": 1})[1]  # real entries untouched


def test_doctor_reports_and_fixes_every_problem_class(tmp_path):
    cache = ArtifactCache(tmp_path)
    for i in range(4):
        cache.put("unit", {"i": i}, list(range(8)))
    healthy = cache.doctor(deep=True)
    assert healthy.problems == 0
    assert healthy.entries == {"unit": 4}
    assert "0 problem(s)" in healthy.report()

    p0, s0 = _entry_paths(tmp_path, "unit", {"i": 0})
    p1, s1 = _entry_paths(tmp_path, "unit", {"i": 1})
    p2, s2 = _entry_paths(tmp_path, "unit", {"i": 2})
    p3, s3 = _entry_paths(tmp_path, "unit", {"i": 3})
    s0.unlink()                                    # payload without sidecar
    p1.unlink()                                    # dangling sidecar
    s2.write_text("{ torn")                        # desynced sidecar
    data = bytearray(p3.read_bytes())
    data[len(data) // 2] ^= 0x01
    p3.write_bytes(bytes(data))                    # silent bit rot
    (tmp_path / "unit" / "x.tmp").write_bytes(b"")  # interrupted write

    shallow = cache.doctor()
    assert len(shallow.missing_sidecars) == 1
    assert len(shallow.dangling_sidecars) == 1
    assert len(shallow.desynced_sidecars) == 1
    assert shallow.corrupt_payloads == []  # bit rot needs the deep audit
    assert len(shallow.orphan_tmps) == 1

    deep = cache.doctor(deep=True)
    assert [p.name for p in deep.corrupt_payloads] == [p3.name]
    assert deep.problems == 5
    assert "desynced sidecar" in deep.report()

    cache.doctor(deep=True, fix=True, tmp_max_age_s=0.0)
    repaired = cache.doctor(deep=True)
    assert repaired.problems == 0
    assert sum(repaired.entries.values()) == 0  # every damaged entry evicted


def test_doctor_ignores_manifests_dir(tmp_path):
    from repro.runtime import ProgressManifest

    cache = ArtifactCache(tmp_path)
    cache.put("unit", {"x": 1}, "v")
    ProgressManifest(tmp_path / "manifests" / "m.json", {"r": 1}).mark_done("s")
    health = cache.doctor(deep=True)
    assert health.problems == 0
    assert health.entries == {"unit": 1}
    assert cache.entries() == {"unit": 1}


# -------------------------------------------------------------- instrument
def test_runtime_stats_timing_counters_and_report():
    # Timing is a span; RuntimeStats keeps the counters.
    tracer = SpanTracer()
    with tracer.span("stage.a"):
        pass
    tracer.add("stage.a", 1.5)
    rec = tracer.export()["stage.a"]
    assert rec["calls"] == 2
    assert rec["seconds"] >= 1.5

    stats = RuntimeStats()
    stats.count("stage.a", 2)
    stats.count("cache.design.hit", 2)
    stats.count("cache.chunk.miss")
    assert stats.cache_hits == 2 and stats.cache_misses == 1
    text = stats.report()
    assert "stage.a" in text and "cache.design.hit" in text
    stats.clear()
    assert stats.report().endswith("(no recorded activity)")


def test_runtime_stats_merge_and_progress():
    seen = []
    a = RuntimeStats(progress=seen.append)
    a.emit("hello")
    assert seen == ["hello"]
    b = RuntimeStats()
    b.count("s", 2)
    b.count("n", 3)
    a.count("s", 1)
    a.merge(b)
    assert a.counters["s"] == 3
    assert a.counters["n"] == 3


# ------------------------------------------------------------- fingerprints
def test_deterministic_split_is_pure_and_well_formed():
    s1 = deterministic_split(100, seed=0)
    s2 = deterministic_split(100, seed=0)
    assert np.array_equal(s1, s2)
    assert len(s1) == 20  # round(0.2 * 100)
    assert np.array_equal(s1, np.sort(s1))
    assert len(np.unique(s1)) == len(s1)
    assert s1.min() >= 0 and s1.max() < 100
    # Different seed / size → different fold.
    assert not np.array_equal(s1, deterministic_split(100, seed=1))
    assert len(deterministic_split(0)) == 0
    with pytest.raises(ValueError):
        deterministic_split(-1)


def test_dataset_request_is_frozen_and_hashable():
    req = DatasetRequest("bypass", 10, 7)
    assert req.kind == "single" and req.miv_fraction == 0.15
    with pytest.raises(Exception):
        req.seed = 8
    assert hash(req) == hash(DatasetRequest("bypass", 10, 7))
    assert pickle.loads(pickle.dumps(req)) == req
