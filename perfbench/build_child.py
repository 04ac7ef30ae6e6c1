"""One cold build in a fresh process: the process under test of ``build``.

Usage: ``python perfbench/build_child.py INPUTS.json [--trace] [--parallel-pass]``

Stamps ``ready`` (absolute ``time.perf_counter``, which is the system-wide
monotonic clock on Linux) at the first work call, after imports and
runtime construction.  Then it builds the augmentation flow from the
design spec to a trained framework through ``DatasetRuntime(workers=1)``
and ``M3DDiagnosisFramework.fit``, and, outside the timed build,
fingerprints the datasets and scores the framework on the input bundle's
held-out chips.  Prints one JSON line.

``--trace`` installs the layer wrappers first and adds the per-layer
aggregate.  ``--parallel-pass`` then repeats the build through
``DatasetRuntime(workers=nproc)``, after the timed build, and reports its
runtime walls and dataset fingerprints: the pool / shared-memory tier's
numbers and its byte-identity check.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def build(rt, spec, seed: int):
    """Design spec → trained framework; returns (framework, sets, designs, stats)."""
    import common as C
    from repro import M3DDiagnosisFramework
    from repro.core.augment import augmentation_configs, build_training_sets

    points = [(spec, cfg, dict(C.PREPARE_KW)) for cfg in augmentation_configs(C.N_RANDOM)]
    designs = rt.prepare_many(points)
    sets = build_training_sets(designs, C.MODE, C.TRAIN_PER_DESIGN, seed=seed, runtime=rt)
    fw = M3DDiagnosisFramework(epochs=C.EPOCHS, seed=0)
    stats = fw.fit(sets)
    return fw, sets, designs, stats


def main(argv) -> int:
    with open(argv[0]) as fh:
        ref = json.load(fh)

    import inputs
    from repro.runtime import DatasetRuntime, get_pool, sample_set_fingerprint

    tracer = None
    if "--trace" in argv:
        import tracer as T

        tracer = T.Tracer()
        T.install(tracer)
    rt = DatasetRuntime(workers=1)
    spec = inputs.design_spec()
    ready = time.perf_counter()
    fw, sets, designs, stats = build(rt, spec, ref["train_seed"])
    done = time.perf_counter()

    syn1 = designs[0]
    out = {
        "ready": ready,
        "build_s": done - ready,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fingerprints": [sample_set_fingerprint(s) for s in sets],
        "train_chips": sum(len(s) for s in sets),
        "fault_coverage": syn1.atpg.fault_coverage,
        "pattern_count": syn1.atpg.patterns.n_patterns,
        "train_accuracy": stats["tier_train_accuracy"],
    }
    if tracer is not None:
        out["layers"] = T.aggregate(tracer.export())
    if "--parallel-pass" in argv:
        workers = os.cpu_count() or 2
        prt = DatasetRuntime(workers=workers)
        get_pool(workers).acquire()
        if tracer is not None:
            tracer.clear()
        _fw, psets, _designs, _stats = build(prt, spec, ref["train_seed"])
        out["parallel_fingerprints"] = [sample_set_fingerprint(s) for s in psets]
        if tracer is not None:
            out["parallel_layers"] = T.aggregate(tracer.export())
    # Scored after the timed build (and after tracing): GNN policy on the
    # precomputed reports only, no effect-cause diagnosis.
    out["quality"] = inputs.score_framework(fw, syn1, ref["test_chips"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
