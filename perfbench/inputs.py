"""Seeded input generation, outside every timed phase.

Run as a child process (``python perfbench/inputs.py KIND SEED OUT``); the
result is a JSON bundle cached under ``perfbench/.cache`` per seed, so the
program under test only ever receives generated inputs:

* ``build`` — the serial reference build of the augmentation flow
  (``prepare_design`` + ``build_dataset`` + ``fit``): dataset fingerprints,
  ATPG quality, train accuracy, and held-out test chips (datalog text,
  precomputed effect-cause report, injected truth) with the reference
  framework's accuracy / resolution / FHI on them;
* ``served`` — the served framework (``.npz``), the unique chips requests
  are drawn from (datalog, precomputed report, truth) and the offline
  ``pipeline.diagnose`` response of each chip after ``canonical_response``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence

import common as C


def design_spec():
    """The netlist every workload uses (the spec ``repro serve`` builds)."""
    from repro import GeneratorSpec

    name = f"serve-{C.CONFIG.lower()}"
    return GeneratorSpec(name, "aes_like", C.GATES, max(16, C.GATES // 8), 16, 16,
                         seed=C.DESIGN_SEED)


def train_seed(seed: int) -> int:
    return 1000 + 10 * seed


def chip_record(design, item, chip_id: str, report) -> Dict[str, Any]:
    """One chip as the wire carries it, plus its injected truth."""
    from repro.diagnosis import Candidate
    from repro.serve import candidate_to_json
    from repro.tester.datalog import dumps_datalog

    truth = [
        candidate_to_json(Candidate(site=f.site, polarity=f.polarity, score=0.0, tier=None))
        for f in item.sample.faults
    ]
    return {
        "chip": chip_id,
        "datalog": dumps_datalog(item.sample.log, chip_id, design.obsmap(C.MODE)),
        "report": [candidate_to_json(c) for c in report.candidates],
        "truth": truth,
    }


def quality(pairs: Sequence[tuple]) -> Dict[str, float]:
    """The paper's accuracy, mean resolution and mean FHI.

    ``pairs`` holds (candidate list, truth candidates); truths are
    :class:`Candidate` objects whose ``.site`` is the injected site.
    """
    from repro.diagnosis import DiagnosisReport
    from repro.diagnosis.report import summarize_reports

    q = summarize_reports(
        (DiagnosisReport(candidates=list(cands)), truths) for cands, truths in pairs
    )
    return {"accuracy": q.accuracy, "resolution": q.mean_resolution,
            "fhi": q.mean_fhi, "n": q.n_samples}


def score_framework(fw, design, chips: List[Dict[str, Any]]) -> Dict[str, float]:
    """Post-process the test chips' precomputed reports with ``fw``.

    One ``diagnose_batch`` over every chip (the serving code path), so the
    reference and every scored build run the identical computation.
    """
    from repro.diagnosis import DiagnosisReport
    from repro.serve import candidate_from_json
    from repro.tester.datalog import loads_datalog

    obsmap = design.obsmap(C.MODE)
    logs = [loads_datalog(chip["datalog"], obsmap)[1] for chip in chips]
    reports = [DiagnosisReport([candidate_from_json(c) for c in chip["report"]])
               for chip in chips]
    results = fw.diagnose_batch(design, C.MODE, logs, reports)
    return quality([(result.report.candidates, _truth_candidates(chip))
                    for result, chip in zip(results, chips)])


def _diagnoser(design):
    from repro import EffectCauseDiagnoser

    return EffectCauseDiagnoser(design.nl, design.obsmap(C.MODE), design.patterns,
                                mivs=design.mivs, sim=design.sim)


def build_inputs(seed: int) -> Dict[str, Any]:
    from repro import M3DDiagnosisFramework, build_dataset, prepare_design
    from repro.core.augment import augmentation_configs
    from repro.runtime import sample_set_fingerprint

    spec = design_spec()
    designs = [prepare_design(spec, cfg, **C.PREPARE_KW)
               for cfg in augmentation_configs(C.N_RANDOM)]
    base = train_seed(seed)
    sets = [build_dataset(d, C.MODE, C.TRAIN_PER_DESIGN, base + i)
            for i, d in enumerate(designs)]
    fw = M3DDiagnosisFramework(epochs=C.EPOCHS, seed=0)
    stats = fw.fit(sets)

    syn1 = designs[0]
    test = build_dataset(syn1, C.MODE, C.TEST_CHIPS, 50_000 + seed).items
    diag = _diagnoser(syn1)
    chips = [chip_record(syn1, item, f"t{i}", diag.diagnose(item.sample.log))
             for i, item in enumerate(test)]
    return {
        "seed": seed,
        "train_seed": base,
        "fingerprints": [sample_set_fingerprint(s) for s in sets],
        "train_chips": sum(len(s) for s in sets),
        "fault_coverage": syn1.atpg.fault_coverage,
        "pattern_count": syn1.atpg.patterns.n_patterns,
        "train_accuracy": stats["tier_train_accuracy"],
        "quality": score_framework(fw, syn1, chips),
        "design": {"n_gates": syn1.nl.n_gates, "n_mivs": len(syn1.mivs),
                   "n_faults": syn1.atpg.n_target_faults},
        "test_chips": chips,
    }


def served_framework(design, path: Path) -> float:
    """Train the deployed framework once per design; returns train accuracy.

    The deployed model is part of the server's configuration, not of its
    traffic, so it does not depend on the workload seed.
    """
    from repro import M3DDiagnosisFramework, build_dataset
    from repro.core.io import save_framework

    train = build_dataset(design, C.MODE, C.SERVE_TRAIN, C.SERVE_TRAIN_SEED)
    fw = M3DDiagnosisFramework(epochs=C.SERVE_EPOCHS, seed=0)
    stats = fw.fit([train])
    tmp = path.with_name(path.stem + ".tmp.npz")
    save_framework(fw, tmp)
    tmp.replace(path)
    return stats["tier_train_accuracy"]


def served_inputs(seed: int, out_dir: Path) -> Dict[str, Any]:
    from repro import DesignConfig, build_dataset, prepare_design
    from repro.core.io import load_framework
    from repro.serve import (
        ModelRegistry,
        canonical_response,
        dumps_response,
        result_response,
    )

    design = prepare_design(design_spec(), DesignConfig.standard(C.CONFIG), **C.PREPARE_KW)
    npz = out_dir / f"framework-{C.cache_tag('framework', C.SERVE_TRAIN_SEED)}.npz"
    meta = npz.with_suffix(".json")
    if not (npz.exists() and meta.exists()):
        meta_tmp = meta.with_suffix(".tmp")
        meta_tmp.write_text(json.dumps({"train_accuracy": served_framework(design, npz)}))
        meta_tmp.replace(meta)
    train_accuracy = json.loads(meta.read_text())["train_accuracy"]

    # Offline reference: the exact weights the server warm-loads.
    record = ModelRegistry().register(C.CONFIG, "v1", load_framework(npz))
    provenance = {"design": C.CONFIG, "config": C.CONFIG, "mode": C.MODE,
                  "model_version": record.version, "nn_backend": record.backend}
    items = build_dataset(design, C.MODE, C.UNIQUE_CHIPS, 60_000 + seed).items
    diag = _diagnoser(design)
    chips = []
    for i, item in enumerate(items):
        report = diag.diagnose(item.sample.log)
        chip = chip_record(design, item, f"c{i}", report)
        result = record.framework.diagnose(design, C.MODE, item.sample.log, report)
        doc = result_response(result, None, chip["chip"], provenance)
        chip["expected"] = dumps_response(canonical_response(doc))
        chips.append(chip)
    return {
        "seed": seed,
        "framework": npz.name,
        "fault_coverage": design.atpg.fault_coverage,
        "pattern_count": design.atpg.patterns.n_patterns,
        "train_accuracy": train_accuracy,
        "design": {"n_gates": design.nl.n_gates, "n_mivs": len(design.mivs),
                   "n_faults": design.atpg.n_target_faults},
        "chips": chips,
    }


def _truth_candidates(chip: Dict[str, Any]) -> list:
    from repro.serve import candidate_from_json

    return [candidate_from_json(t) for t in chip["truth"]]


def load(kind: str, seed: int) -> Dict[str, Any]:
    """The seed's input bundle, generated on first use and cached on disk."""
    path = C.CACHE / f"{kind}-{seed}-{C.cache_tag(kind, seed)}.json"
    if not path.exists():
        proc = C.run_child([sys.executable, __file__, kind,
                            str(seed), str(path)], timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"input generation failed:\n{proc.stderr[-2000:]}")
    with open(path) as fh:
        bundle = json.load(fh)
    bundle["path"] = str(path)
    return bundle


def main(argv: List[str]) -> int:
    kind, seed, out = argv[0], int(argv[1]), Path(argv[2])
    out.parent.mkdir(parents=True, exist_ok=True)
    bundle = build_inputs(seed) if kind == "build" else served_inputs(seed, out.parent)
    tmp = out.with_suffix(".tmp")
    tmp.write_text(json.dumps(bundle))
    tmp.replace(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
