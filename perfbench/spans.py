"""Span recording from outside the program, and per-layer self-times.

:class:`Instrumentation` rebinds the public entry points of each layer --
module attributes and class methods -- to wrappers that time every call,
and restores the originals afterwards.  Nothing under ``src/`` changes.
The wrappers time each call with :func:`repro.obs.tracing.trace_span`
into one :class:`~repro.obs.tracing.Tracer` per process, whose span ids
carry the pid.  Spans stay in memory; extraction pool workers (forked from
the traced process, so they inherit the wrappers) export theirs to one
spool file per worker after each task, and the traced process adopts them
after the round.

A span's self-time is its duration minus the part of its interval that
its children cover.  Pool-worker spans are children of the parent's
``engine.extract`` span, so extraction self-time is the pool overhead the
workers do not account for.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

Span = Dict[str, Any]

#: Layer metric names (``<name>_ms`` is self-time) in pipeline order.
SELF_TIME_SPANS = (
    "hdl.lex",
    "hdl.parse",
    "features.tabular",
    "features.graph_build",
    "features.graph_features",
    "features.image",
    "engine.assemble",
    "engine.feature_store.get",
    "engine.feature_store.put",
    "engine.feature_store.flush",
    "engine.cache.lookup",
    "engine.cache.put",
    "engine.cache.flush",
    "engine.artifacts.load",
    "nn.forward",
    "conformal.p_value",
    "conformal.combine",
    "core.decisions",
)


class _ProcessTracer:
    """The tracer of the current process.

    The traced process owns one :class:`repro.obs.tracing.Tracer`.  A
    forked extraction pool worker inherits it, together with the stack of
    spans open at the fork, and replaces it on first use with a tracer of
    its own, whose span ids carry the worker's pid; the worker's spans
    then hang off the span that was open at the fork (``engine.extract``).
    """

    def __init__(self) -> None:
        self.pid: Optional[int] = None
        self.tracer: Any = None
        self.fork_parent: Optional[str] = None
        self.spool_dir: Optional[Path] = None
        self.original_worker: Optional[Callable] = None

    def start(self, spool_dir: Path, original_worker: Callable) -> None:
        from repro.obs.tracing import Tracer

        self.pid = os.getpid()
        self.tracer = Tracer("perfbench", id_prefix=f"{self.pid}.")
        self.fork_parent = None
        self.spool_dir = spool_dir
        self.original_worker = original_worker

    def current(self) -> Any:
        if self.tracer is not None and os.getpid() != self.pid:
            from repro.obs.tracing import Tracer

            self.fork_parent = self.tracer.current_span_id()
            self.pid = os.getpid()
            self.tracer = Tracer("perfbench", id_prefix=f"{self.pid}.")
        return self.tracer

    def spool(self) -> None:
        """Append this (worker) process's finished spans to its spool file."""
        spans = self.current().export(drain=True)
        if spans and self.spool_dir is not None:
            with open(self.spool_dir / f"worker-{os.getpid()}.jsonl", "a", encoding="utf-8") as handle:
                handle.write("".join(json.dumps(s) + "\n" for s in spans))

    def collect(self) -> List[Span]:
        """Adopt the workers' spooled spans and drain every finished span."""
        assert self.spool_dir is not None
        for path in sorted(self.spool_dir.glob("worker-*.jsonl")):
            self.tracer.adopt(json.loads(line) for line in path.read_text().splitlines() if line)
            path.unlink()
        return self.tracer.export(drain=True)


#: Module-level because pool tasks are pickled by reference: the worker
#: entry point and the state it reaches have to be importable names.
_PROCESS = _ProcessTracer()


def _wrap(name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
    from repro.obs.tracing import trace_span

    def traced(*args: Any, **kwargs: Any) -> Any:
        with trace_span(_PROCESS.current(), name) as span:
            result = fn(*args, **kwargs)
            if count is not None:
                span.attrs.update(count(args, result))
        return result

    traced.__wrapped__ = fn  # type: ignore[attr-defined]
    return traced


def traced_extract_worker(task: Tuple[int, str, int]) -> Any:
    """Stand-in for ``repro.engine.scan._extract_worker`` in the traced run."""
    from repro.obs.tracing import trace_span

    assert _PROCESS.original_worker is not None
    tracer = _PROCESS.current()
    with trace_span(tracer, "engine.frontend", parent_id=_PROCESS.fork_parent) as span:
        result = _PROCESS.original_worker(task)
        row = result[1]
        if row is not None:
            span.attrs["row_bytes"] = sum(int(part.nbytes) for part in row)
    _PROCESS.spool()
    return result


def process_of(span: Span) -> str:
    """The process that recorded ``span`` (span ids carry the pid as prefix)."""
    return span["span_id"].split(".", 1)[0]


def _rows(args: Tuple, _result: Any) -> Dict[str, Any]:
    return {"rows": int(len(args[-1]))}


def _tokens(_args: Tuple, result: Any) -> Dict[str, Any]:
    return {"tokens": len(result)}


def _hit(_args: Tuple, result: Any) -> Dict[str, Any]:
    if result is None:
        return {"hit": 0}
    if isinstance(result, tuple):  # a feature row
        return {"hit": 1, "row_bytes": sum(int(part.nbytes) for part in result)}
    return {"hit": 1}


class Instrumentation:
    """Rebinds each layer's entry points to span-recording wrappers.

    Spans go to the traced process's tracer (:func:`tracer`); pool workers
    spool theirs to files under ``spool_dir``, which :meth:`collect` merges.
    """

    def __init__(self, spool_dir: Path) -> None:
        self.spool_dir = spool_dir
        self._saved: List[Tuple[Any, str, Any]] = []

    def _rebind(self, owner: Any, attr: str, name: str, count: Optional[Callable] = None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, original))
        if isinstance(original, classmethod):
            replacement: Any = classmethod(_wrap(name, original.__func__, count))
        else:
            replacement = _wrap(name, original, count)
        setattr(owner, attr, replacement)

    def install(self) -> None:
        import repro.core.fusion as fusion
        import repro.engine.scan as scan
        import repro.features.pipeline as pipeline
        import repro.hdl.parser as parser
        from repro.conformal.icp import InductiveConformalClassifier
        from repro.core.classifiers import CNNModalityClassifier, ImageCNNClassifier
        from repro.engine.cache import ScanCache
        from repro.engine.feature_store import FeatureStore

        if self._saved:
            raise RuntimeError("instrumentation is already installed")
        self._rebind(parser, "tokenize", "hdl.lex", _tokens)
        self._rebind(pipeline, "parse_module", "hdl.parse")
        self._rebind(pipeline, "tabular_feature_vector", "features.tabular")
        self._rebind(pipeline, "build_dataflow_graph", "features.graph_build")
        self._rebind(pipeline, "graph_feature_vector", "features.graph_features")
        self._rebind(pipeline, "adjacency_image", "features.image")
        self._rebind(scan, "extract_feature_rows", "engine.extract")
        self._rebind(scan, "assemble_features", "engine.assemble")
        self._rebind(scan, "build_decisions", "core.decisions")
        self._rebind(FeatureStore, "get", "engine.feature_store.get", _hit)
        self._rebind(FeatureStore, "put", "engine.feature_store.put")
        self._rebind(FeatureStore, "flush", "engine.feature_store.flush")
        self._rebind(ScanCache, "get", "engine.cache.lookup", _hit)
        self._rebind(ScanCache, "put", "engine.cache.put")
        self._rebind(ScanCache, "flush", "engine.cache.flush")
        self._rebind(scan.ScanEngine, "from_artifact", "engine.artifacts.load")
        self._rebind(CNNModalityClassifier, "predict_proba", "nn.forward", _rows)
        self._rebind(ImageCNNClassifier, "predict_proba", "nn.forward", _rows)
        self._rebind(InductiveConformalClassifier, "p_values", "conformal.p_value")
        self._rebind(fusion, "combine_p_value_matrices", "conformal.combine")
        self._saved.append((scan, "_extract_worker", scan._extract_worker))
        _PROCESS.start(self.spool_dir, scan._extract_worker)
        scan._extract_worker = traced_extract_worker

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def collect(self) -> List[Span]:
        """Every span finished since the last call, pool workers' included."""
        return _PROCESS.collect()


def tracer() -> Any:
    """The :class:`repro.obs.tracing.Tracer` of the traced process."""
    return _PROCESS.current()


# -- analysis -----------------------------------------------------------------


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Seconds of each span's interval not covered by its children, by span id."""
    children: Dict[str, List[Span]] = {}
    for span in spans:
        if span["parent_id"] is not None:
            children.setdefault(span["parent_id"], []).append(span)
    result: Dict[str, float] = {}
    for span in spans:
        start = span["start_unix_s"]
        end = start + span["duration_s"]
        covered, reach = 0.0, start
        for child in sorted(children.get(span["span_id"], ()), key=lambda s: s["start_unix_s"]):
            lo = max(child["start_unix_s"], reach)
            hi = min(child["start_unix_s"] + child["duration_s"], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[span["span_id"]] = span["duration_s"] - covered
    return result


def self_time_by_process(spans: List[Span]) -> Dict[str, float]:
    """Summed self-time of every non-root span, per process timeline."""
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        if span["name"] != "round":
            key = process_of(span)
            totals[key] = totals.get(key, 0.0) + own[span["span_id"]]
    return totals


def round_layer_metrics(spans: List[Span], tiers: Dict[str, float]) -> Dict[str, float]:
    """Per-layer totals of one traced round (``_ms`` metrics are self-time)."""
    own = self_times(spans)
    ms: Dict[str, float] = {name: 0.0 for name in SELF_TIME_SPANS}
    counts = {"tokens": 0, "rows": 0, "fs_gets": 0, "fs_hits": 0, "cache_gets": 0, "cache_hits": 0}
    row_bytes: List[int] = []
    extract_wall = busy = 0.0
    workers = set()
    for span in spans:
        name, attrs = span["name"], span["attrs"]
        if name in ms:
            ms[name] += 1000.0 * own[span["span_id"]]
        if name == "engine.extract":
            extract_wall += 1000.0 * span["duration_s"]
        elif name == "engine.frontend":
            busy += 1000.0 * span["duration_s"]
            workers.add(process_of(span))
        counts["tokens"] += attrs.get("tokens", 0)
        counts["rows"] += attrs.get("rows", 0)
        if name == "engine.feature_store.get":
            counts["fs_gets"] += 1
            counts["fs_hits"] += attrs["hit"]
        elif name == "engine.cache.lookup":
            counts["cache_gets"] += 1
            counts["cache_hits"] += attrs["hit"]
        if "row_bytes" in attrs:
            row_bytes.append(attrs["row_bytes"])
    metrics = {
        "hdl.lex_ms": ms["hdl.lex"],
        "hdl.parse_ms": ms["hdl.parse"],
        "hdl.tokens": float(counts["tokens"]),
        "features.tabular_ms": ms["features.tabular"],
        "features.graph_build_ms": ms["features.graph_build"],
        "features.graph_features_ms": ms["features.graph_features"],
        "features.image_ms": ms["features.image"],
        "features.row_bytes": sum(row_bytes) / len(row_bytes) if row_bytes else 0.0,
        "engine.extract_ms": extract_wall,
        "engine.frontend_busy_ms": busy,
        "engine.pool_efficiency": busy / (extract_wall * len(workers)) if workers and extract_wall else 0.0,
        "engine.assemble_ms": ms["engine.assemble"],
        "engine.feature_store.get_ms": ms["engine.feature_store.get"],
        "engine.feature_store.put_ms": ms["engine.feature_store.put"],
        "engine.feature_store.flush_ms": ms["engine.feature_store.flush"],
        "engine.feature_store.hit_ratio": counts["fs_hits"] / counts["fs_gets"] if counts["fs_gets"] else 0.0,
        "engine.feature_store.segments": float(tiers["feature_segments"]),
        "engine.feature_store.disk_bytes": float(tiers["feature_bytes"]),
        "engine.cache.lookup_ms": ms["engine.cache.lookup"],
        "engine.cache.put_ms": ms["engine.cache.put"],
        "engine.cache.flush_ms": ms["engine.cache.flush"],
        "engine.cache.hit_ratio": counts["cache_hits"] / counts["cache_gets"] if counts["cache_gets"] else 0.0,
        "engine.cache.disk_bytes": float(tiers["cache_bytes"]),
        "engine.artifacts.load_ms": ms["engine.artifacts.load"],
        "nn.forward_ms": ms["nn.forward"],
        "nn.rows": float(counts["rows"]),
        "conformal.p_value_ms": ms["conformal.p_value"],
        "conformal.combine_ms": ms["conformal.combine"],
        "core.decisions_ms": ms["core.decisions"],
    }
    return metrics
