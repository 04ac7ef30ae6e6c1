"""The repo benchmark: build, diagnose and triage workloads.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload build --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 15

One workload run prints its context (host, revision, seed, sizes, BLAS
setting), a metric table, and as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  ``--all``
runs every workload both ways, prints every metric by name with its unit,
and exits non-zero if any correctness check failed.  ``--selfcheck`` runs
the tracer's nested-span check and two traced runs of one seed whose call
counts must repeat exactly.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List

import common as C

WORKLOADS = ("build", "diagnose", "triage")


def _run(workload: str, seed: int, seconds: int, trace: bool) -> Dict[str, Any]:
    (C.WORK / "tmp").mkdir(parents=True, exist_ok=True)
    if workload == "build":
        import builds

        return builds.run(workload, seed, seconds, trace)
    import served

    return served.run(workload, seed, seconds, trace)


def _print_table(result: Dict[str, Any]) -> None:
    for name, m in result["metrics"].items():
        print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}")


def _selfcheck(seed: int, seconds: int) -> int:
    import tracer

    failures = tracer.selfcheck()
    for f in failures:
        print(f"tracer selfcheck: {f}")
    for workload in ("build", "diagnose"):
        a, b = (_run(workload, seed, seconds, True) for _ in range(2))
        ca, cb = a["call_counts"], b["call_counts"]
        diff = sorted(k for k in set(ca) | set(cb) if ca.get(k) != cb.get(k))
        print(f"{workload}: {len(ca)} span counts compared, {len(diff)} differ")
        for k in diff:
            print(f"  {k}: {ca.get(k)} vs {cb.get(k)}")
            failures.append(f"{workload} {k}")
    print("selfcheck", "FAILED" if failures else "ok")
    return 1 if failures else 0


def main(argv: List[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="every workload, both modes")
    ap.add_argument("--selfcheck", action="store_true")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not C.program_present():
        print(f"perfbench: no program at {C.SRC / 'repro'}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.environ.update(C.BLAS_ENV)
    if args.selfcheck:
        return _selfcheck(args.seed, args.seconds)
    if args.all:
        ok = True
        for workload in WORKLOADS:
            for trace in (False, True):
                result = _run(workload, args.seed, args.seconds, trace)
                print(f"{workload} ({'traced' if trace else 'untraced'}): "
                      f"correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}")
                _print_table(result)
                for problem in result["problems"]:
                    print(f"  PROBLEM: {problem}")
                ok = ok and result["correct"]
        return 0 if ok else 1
    if args.workload is None:
        ap.error("--workload, --all or --selfcheck is required")
    result = _run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"context": result["context"]}, sort_keys=True))
    _print_table(result)
    for problem in result["problems"]:
        print(f"PROBLEM: {problem}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
