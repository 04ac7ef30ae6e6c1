"""Checkpoint/resume: progress manifests and stage-checkpointed ``fit``.

The resume contract: an interrupted multi-stage run re-invoked with the
same inputs completes without re-running finished stages (visible as
``*.resumed`` counters and *absent* stage spans), and any
input change invalidates the checkpoint wholesale — a resume can never mix
stages from two configurations.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import M3DDiagnosisFramework
from repro.data import build_dataset
from repro.obs import SpanTracer
from repro.runtime import (
    ArtifactCache,
    ProgressManifest,
    RuntimeStats,
    cache_key_hash,
    manifest_path,
    reset_runtime,
)


@pytest.fixture(autouse=True)
def _isolate_global_runtime():
    reset_runtime()
    yield
    reset_runtime()


# ------------------------------------------------------------- manifests
class TestProgressManifest:
    RUN_KEY = {"command": "tables", "scale": "tiny", "samples": 8}

    def test_roundtrip_across_reload(self, tmp_path):
        path = manifest_path(tmp_path, "tables", self.RUN_KEY)
        m = ProgressManifest(path, self.RUN_KEY)
        assert not m.is_done("table3")
        m.mark_done("table3", payload="| rendered |")
        m.mark_done("figure2")

        again = ProgressManifest(path, self.RUN_KEY)
        assert again.is_done("table3") and again.is_done("figure2")
        assert again.result("table3") == "| rendered |"
        assert again.result("figure2") is None  # payload-less stage
        assert again.done_stages() == ["table3", "figure2"]  # completion order

    def test_run_key_change_invalidates(self, tmp_path):
        path = tmp_path / "m.json"
        ProgressManifest(path, self.RUN_KEY).mark_done("table3")
        other = ProgressManifest(path, {**self.RUN_KEY, "samples": 16})
        assert not other.is_done("table3")
        # …and marking under the new key overwrites the stale record.
        other.mark_done("figure2")
        assert ProgressManifest(path, self.RUN_KEY).done_stages() == []

    def test_torn_or_foreign_file_restarts_cleanly(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"format": 1, "run_key_hash": "x", "stag')  # torn write
        m = ProgressManifest(path, self.RUN_KEY)
        assert m.done_stages() == []
        m.mark_done("table3")
        assert ProgressManifest(path, self.RUN_KEY).is_done("table3")

        path.write_text(json.dumps({"format": 99, "stages": {"table3": {}}}))
        assert not ProgressManifest(path, self.RUN_KEY).is_done("table3")

    def test_every_mark_is_durable_and_atomic(self, tmp_path):
        path = tmp_path / "m.json"
        m = ProgressManifest(path, self.RUN_KEY)
        for i in range(4):
            m.mark_done(f"stage{i}")
            # The on-disk file is valid JSON after every single mark and no
            # tempfile lingers — a SIGKILL at any point leaves a usable state.
            doc = json.loads(path.read_text())
            assert f"stage{i}" in doc["stages"]
            assert not list(tmp_path.glob("*.tmp"))

    def test_discard(self, tmp_path):
        path = tmp_path / "m.json"
        m = ProgressManifest(path, self.RUN_KEY)
        m.mark_done("table3")
        m.discard()
        assert not path.exists()
        assert not ProgressManifest(path, self.RUN_KEY).is_done("table3")
        m.discard()  # idempotent

    def test_manifest_path_isolates_run_keys(self, tmp_path):
        a = manifest_path(tmp_path, "tables", self.RUN_KEY)
        b = manifest_path(tmp_path, "tables", {**self.RUN_KEY, "samples": 16})
        c = manifest_path(tmp_path, "tables", dict(reversed(list(self.RUN_KEY.items()))))
        assert a != b  # different inputs → different manifest files
        assert a == c  # key order is canonicalized
        assert a.parent.name == "manifests"


# ------------------------------------------------- stage-checkpointed fit
N_TRAIN = 48
FIT_PARAMS = dict(epochs=6, seed=0)


@pytest.fixture(scope="module")
def train_set(prepared):
    return build_dataset(prepared, "bypass", N_TRAIN, seed=51)


def _fit_stage_path(cache, fw, train):
    key = fw._checkpoint_key([train])
    return lambda stage: cache._path("fit_stage", cache_key_hash({**key, "stage": stage}))


class TestFitCheckpoint:
    def test_refit_resumes_every_stage(self, prepared, train_set, tmp_path):
        cache = ArtifactCache(tmp_path)
        first_stats, first_tracer = RuntimeStats(), SpanTracer()
        fw1 = M3DDiagnosisFramework(**FIT_PARAMS)
        s1 = fw1.fit([train_set], stats_sink=first_stats, checkpoint=cache,
                     tracer=first_tracer)
        trained = [p for p in first_tracer.export() if p.startswith("fit.")]
        assert "fit.tier" in trained
        assert not any(k.endswith(".resumed") for k in first_stats.counters)

        resumed_stats, resumed_tracer = RuntimeStats(), SpanTracer()
        fw2 = M3DDiagnosisFramework(**FIT_PARAMS)
        s2 = fw2.fit([train_set], stats_sink=resumed_stats, checkpoint=cache,
                     tracer=resumed_tracer)
        # The proof the stages did not re-run: no fit.* stage span at all.
        assert not any(p.startswith("fit.") for p in resumed_tracer.export())
        assert resumed_stats.counters.get("fit.tier.resumed") == 1
        assert resumed_stats.counters.get("fit.threshold.resumed") == 1
        # …and the resumed framework is behaviorally identical.
        assert s2["tp_threshold"] == s1["tp_threshold"]
        assert s2["tier_train_accuracy"] == s1["tier_train_accuracy"]
        graphs = [g for g in train_set.graphs if g.y >= 0]
        np.testing.assert_array_equal(
            fw1.tier_predictor.predict_proba(graphs),
            fw2.tier_predictor.predict_proba(graphs),
        )

    def test_partial_resume_retrains_only_missing_stage(self, prepared, train_set, tmp_path):
        cache = ArtifactCache(tmp_path)
        fw1 = M3DDiagnosisFramework(**FIT_PARAMS)
        fw1.fit([train_set], checkpoint=cache)

        # Simulate an interruption that completed tier but lost it (eviction
        # stands in for "killed before the stage was checkpointed").
        stage_path = _fit_stage_path(cache, fw1, train_set)
        cache._evict(stage_path("tier"))

        stats, tracer = RuntimeStats(), SpanTracer()
        fw2 = M3DDiagnosisFramework(**FIT_PARAMS)
        fw2.fit([train_set], stats_sink=stats, checkpoint=cache, tracer=tracer)
        assert "fit.tier" in tracer.export()  # only this stage re-ran
        assert stats.counters.get("fit.threshold.resumed") == 1
        assert "fit.threshold" not in tracer.export()

    def test_hyperparameter_change_invalidates(self, prepared, train_set, tmp_path):
        cache = ArtifactCache(tmp_path)
        M3DDiagnosisFramework(**FIT_PARAMS).fit([train_set], checkpoint=cache)
        stats, tracer = RuntimeStats(), SpanTracer()
        fw = M3DDiagnosisFramework(epochs=6, seed=1)  # different seed
        fw.fit([train_set], stats_sink=stats, checkpoint=cache, tracer=tracer)
        assert not any(k.endswith(".resumed") for k in stats.counters)
        assert "fit.tier" in tracer.export()

    def test_resumed_fit_on_shared_sinks_reports_no_fit_seconds(
        self, prepared, train_set, tmp_path
    ):
        """Stage seconds belong to the fit that trained: a shared sink and
        tracer carrying an earlier fit must not leak into a resumed one."""
        cache = ArtifactCache(tmp_path)
        stats, tracer = RuntimeStats(), SpanTracer()
        first = M3DDiagnosisFramework(**FIT_PARAMS).fit(
            [train_set], stats_sink=stats, checkpoint=cache, tracer=tracer
        )
        assert "fit_tier_s" in first
        second = M3DDiagnosisFramework(**FIT_PARAMS).fit(
            [train_set], stats_sink=stats, checkpoint=cache, tracer=tracer
        )
        assert stats.counters.get("fit.tier.resumed") == 1
        assert not [k for k in second if k.startswith("fit_")]
        spans = tracer.export()
        assert spans["fit"]["calls"] == 2
        assert spans["fit.tier"]["calls"] == 1  # only the first fit trained
        assert spans["fit.tier"]["seconds"] == first["fit_tier_s"]

    def test_without_checkpoint_nothing_is_written(self, prepared, train_set, tmp_path):
        cache = ArtifactCache(tmp_path)
        M3DDiagnosisFramework(**FIT_PARAMS).fit([train_set])
        assert cache.entries() == {}


# ----------------------------------------------------- tables CLI resume
@pytest.mark.slow
def test_tables_resumes_from_manifest(tmp_path, capsys):
    from repro.cli import main

    args = ["tables", "--scale", "tiny", "--samples", "8", "--only", "table3",
            "--workers", "1", "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert "resumed from checkpoint" not in first

    reset_runtime()
    assert main(args) == 0
    second = capsys.readouterr().out
    assert "table3: resumed from checkpoint" in second
    assert "1 stage(s) already complete" in second

    # --no-resume discards the manifest and recomputes.
    reset_runtime()
    assert main(args + ["--no-resume"]) == 0
    third = capsys.readouterr().out
    assert "resumed from checkpoint" not in third
