"""The process that runs the scan system for ``scan_cold`` and ``scan_reload``.

Started as ``python -m perfbench.system --artifact DIR --cache-dir DIR``
with ``src`` on ``PYTHONPATH``.  It imports ``repro``, loads the artifact
with both cache tiers attached (the CLI default) and prints one ``ready``
line; then it answers one JSON command per stdin line with one JSON line
on stdout:

* ``{"op": "round", "artifact": DIR, "designs": [[name, source], ...],
  "trace": bool}`` -- time ``ScanEngine.from_artifact`` plus
  ``scan_sources`` with the default worker count, and return the records
  (with spans and tier sizes when traced);
* ``{"op": "stats"}`` -- peak resident set size;
* ``{"op": "exit"}``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    t_import = time.perf_counter()
    from repro.engine.cache import describe_result_tier
    from repro.engine.feature_store import default_feature_store_dir, describe_feature_tier
    from repro.engine.scan import ScanEngine, ScanSource

    import_s = time.perf_counter() - t_import

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--artifact", required=True)
    parser.add_argument("--cache-dir", required=True)
    args = parser.parse_args()
    cache_dir = Path(args.cache_dir)
    feature_dir = default_feature_store_dir(cache_dir)

    t_load = time.perf_counter()
    ScanEngine.from_artifact(args.artifact, cache_dir, feature_dir)
    load_s = time.perf_counter() - t_load

    def reply(payload: dict) -> None:
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stdout.flush()

    reply({"ready": True, "import_s": import_s, "load_s": load_s})

    instrumentation = None
    for line in sys.stdin:
        command = json.loads(line)
        op = command["op"]
        if op == "exit":
            break
        if op == "stats":
            reply({"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0})
            continue
        if op != "round":
            reply({"error": f"unknown op {op!r}"})
            continue
        sources = [ScanSource(name=name, source=source) for name, source in command["designs"]]
        if command.get("trace"):
            from repro.obs.tracing import trace_span

            from .spans import Instrumentation, tracer

            if instrumentation is None:
                spool = cache_dir.parent / "spool"
                spool.mkdir(parents=True, exist_ok=True)
                instrumentation = Instrumentation(spool)
            instrumentation.install()
            try:
                with trace_span(tracer(), "round"):
                    t0 = time.perf_counter()
                    engine = ScanEngine.from_artifact(command["artifact"], cache_dir, feature_dir)
                    report = engine.scan_sources(sources)
                    wall_s = time.perf_counter() - t0
            finally:
                instrumentation.uninstall()
            spans = instrumentation.collect()
            feature_tier = describe_feature_tier(feature_dir)
            tiers = {
                "feature_segments": sum(ns["n_segments"] for ns in feature_tier["namespaces"]),
                "feature_bytes": feature_tier["bytes"],
                "cache_bytes": describe_result_tier(cache_dir)["bytes"],
            }
        else:
            t0 = time.perf_counter()
            engine = ScanEngine.from_artifact(command["artifact"], cache_dir, feature_dir)
            report = engine.scan_sources(sources)
            wall_s = time.perf_counter() - t0
            spans, tiers = [], {}
        reply(
            {
                "wall_s": wall_s,
                "cache_hits": report.n_cache_hits,
                "feature_hits": report.n_feature_hits,
                "records": [record.to_dict() for record in report.records],
                "spans": spans,
                "tiers": tiers,
            }
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
