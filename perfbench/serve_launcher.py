"""Benchmark-owned launcher for ``repro serve``: the served process under test.

Usage: ``python perfbench/serve_launcher.py OUT.json [--trace] -- SERVE-ARGS``

Imports the CLI and the packages its ``serve`` command uses, installs the
layer wrappers when ``--trace`` is given, and calls ``repro.cli.main``.
Untraced runs take the same path without wrappers, so tracing is the only
difference between the two.  When the server exits (SIGINT), writes its
peak RSS and, when traced, the span aggregates to ``OUT.json``.
"""

from __future__ import annotations

import json
import resource
import sys


def main(argv) -> int:
    out_path = argv[0]
    split = argv.index("--")
    trace = "--trace" in argv[1:split]
    serve_args = argv[split + 1:]

    import repro.cli
    import repro.core.io  # noqa: F401  (loaded by `serve --framework`)
    import repro.serve  # noqa: F401

    tracer = None
    if trace:
        import tracer as T

        tracer = T.Tracer()
        T.install(tracer)
    rc = repro.cli.main(serve_args)

    out = {"rc": rc,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        spans = tracer.export()
        request_roots = {"serve.batch", "serve.http"}
        out["setup"] = T.aggregate(spans, lambda root: root not in request_roots)
        out["request"] = T.aggregate(spans, lambda root: root in request_roots)
        out["http"] = [(s[T.RID], s[T.END] - s[T.START])
                       for s in spans if s[T.NAME] == "serve.http"]
    with open(out_path, "w") as fh:
        json.dump(out, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
