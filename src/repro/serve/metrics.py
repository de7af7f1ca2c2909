"""Thread-safe service metrics behind the ``GET /metrics`` endpoint.

The scan service is a long-lived process, so operators need the classic
serving signals: how many requests of each kind arrived, how large the
micro-batches actually are (the whole point of batching), how the request
latency distribution looks, and how often the result cache short-circuits
a forward pass.  :class:`ServiceMetrics` collects all of it under one lock
with O(1) updates; latency percentiles come from a bounded ring buffer of
recent observations so the snapshot cost stays flat no matter how long the
server has been up.

Every mutator also mirrors its increment into the process-wide
:data:`repro.obs.metrics.REGISTRY` families declared below, which back the
Prometheus exposition at ``GET /metrics?format=prometheus``.  The JSON
snapshot stays per-:class:`ServiceMetrics` instance (its schema is frozen
for existing clients), while the registry aggregates across every service
instance in the process — standard Prometheus semantics.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional

from ..obs.metrics import REGISTRY

#: How many recent request latencies the percentile window keeps.
DEFAULT_LATENCY_WINDOW = 2048

#: The routes the service serves; each is counted under its own label.
KNOWN_ROUTES = frozenset({"/scan", "/healthz", "/metrics", "/reload", "/promote"})

#: The one label every other request path is counted under.  The path is
#: client input, so a label per path would let clients grow the counters
#: (and the Prometheus exposition) without bound.
OTHER_ROUTE = "other"

# Prometheus families mirrored by ServiceMetrics (registered once, at
# import time — lint rule R7 enforces the single registration site).
_REQUESTS = REGISTRY.counter(
    "repro_serve_requests_total", "HTTP requests received, by route.", labels=("route",)
)
_HTTP_ERRORS = REGISTRY.counter(
    "repro_serve_http_errors_total", "HTTP requests answered with an error status."
)
_SCAN_REQUESTS = REGISTRY.counter(
    "repro_serve_scan_requests_total", "Completed POST /scan requests."
)
_DESIGNS = REGISTRY.counter(
    "repro_serve_designs_total", "Designs scanned across all requests."
)
_CACHE_HITS = REGISTRY.counter(
    "repro_serve_cache_hits_total", "Designs served from the result cache."
)
_FEATURE_HITS = REGISTRY.counter(
    "repro_serve_feature_hits_total",
    "Designs that skipped extraction via the feature store.",
)
_DESIGN_ERRORS = REGISTRY.counter(
    "repro_serve_design_errors_total", "Designs that failed to scan."
)
_BATCHES = REGISTRY.counter(
    "repro_serve_batches_total", "Micro-batches flushed by the batch workers."
)
_BATCHED_DESIGNS = REGISTRY.counter(
    "repro_serve_batched_designs_total", "Designs carried by flushed micro-batches."
)
_RELOADS = REGISTRY.counter(
    "repro_serve_reloads_total", "Model artifact hot reloads (automatic or forced)."
)
_MODEL_SCANS = REGISTRY.counter(
    "repro_serve_model_scans_total",
    "Scan requests routed to each registered model.",
    labels=("model",),
)
_MODEL_DESIGNS = REGISTRY.counter(
    "repro_serve_model_designs_total",
    "Designs scanned by each registered model.",
    labels=("model",),
)
_SHADOW_SCANS = REGISTRY.counter(
    "repro_serve_shadow_scans_total", "Challenger shadow scans."
)
_SHADOW_DESIGNS = REGISTRY.counter(
    "repro_serve_shadow_designs_total", "Designs mirrored to shadow challengers."
)
_PROMOTIONS = REGISTRY.counter(
    "repro_serve_promotions_total", "Champion promotions (any trigger)."
)
_FORCED_PROMOTIONS = REGISTRY.counter(
    "repro_serve_forced_promotions_total", "Champion promotions forced via POST /promote."
)
_REJECTED = REGISTRY.counter(
    "repro_serve_rejected_total",
    "Requests shed by overload protection, by reason.",
    labels=("reason",),
)
_LATENCY = REGISTRY.histogram(
    "repro_serve_scan_latency_seconds", "End-to-end POST /scan latency."
)
_UPTIME = REGISTRY.gauge(
    "repro_serve_uptime_seconds", "Seconds since the service started."
)


class LatencyWindow:
    """Bounded ring buffer of recent latencies with percentile queries.

    Keeping every latency ever observed would grow without bound in a
    long-lived server; keeping only a counter+sum would lose the tail.  A
    fixed-size ring of the most recent ``size`` samples is the standard
    middle ground: percentiles reflect *current* behaviour and the memory
    cost is constant.
    """

    def __init__(self, size: int = DEFAULT_LATENCY_WINDOW) -> None:
        if size <= 0:
            raise ValueError("latency window size must be positive")
        self.size = size
        self._samples: List[float] = []
        self._next = 0

    def __len__(self) -> int:
        """Number of samples currently held (never more than ``size``)."""
        return len(self._samples)

    def observe(self, seconds: float) -> None:
        """Record one latency sample, evicting the oldest once full."""
        if len(self._samples) < self.size:
            self._samples.append(seconds)
        else:
            self._samples[self._next] = seconds
            self._next = (self._next + 1) % self.size

    def percentile(self, q: float) -> Optional[float]:
        """The ``q``-th percentile (0-100) of the window, ``None`` if empty.

        Uses the nearest-rank method on a sorted copy — exact, simple, and
        cheap at the window sizes involved.
        """
        return self.percentiles([q])[0]

    def percentiles(self, qs: List[float]) -> List[Optional[float]]:
        """Several percentiles from **one** sorted pass over the window.

        ``snapshot()`` asks for p50/p95/p99 together on every ``/metrics``
        call; sorting once instead of per-quantile keeps that cost flat.
        """
        if any(not 0.0 <= q <= 100.0 for q in qs):
            raise ValueError("percentile must be in [0, 100]")
        if not self._samples:
            return [None] * len(qs)
        ordered = sorted(self._samples)
        top = len(ordered) - 1
        return [ordered[max(0, min(top, round(q / 100.0 * top)))] for q in qs]


class ServiceMetrics:
    """Counters, batch-size stats and latency percentiles for one service.

    Every mutator takes the internal lock, so the event-loop thread and
    the batch workers can update concurrently; :meth:`snapshot` returns a plain
    ``dict`` ready for JSON serialisation.
    """

    def __init__(self, latency_window: int = DEFAULT_LATENCY_WINDOW) -> None:
        self._lock = threading.Lock()
        self._latency = LatencyWindow(latency_window)
        self.started_at = time.time()
        self._started_monotonic = time.monotonic()
        self.requests_total = 0
        self.requests_by_route: Dict[str, int] = {}
        self.http_errors = 0
        self.scan_requests = 0
        self.designs_total = 0
        self.cache_hits = 0
        self.feature_hits = 0
        self.design_errors = 0
        self.batches_total = 0
        self.batched_designs_total = 0
        self.max_batch_designs = 0
        self.reloads = 0
        self.scans_by_model: Dict[str, int] = {}
        self.designs_by_model: Dict[str, int] = {}
        self.shadow_scans = 0
        self.shadow_designs = 0
        self.promotions = 0
        self.forced_promotions = 0
        self.rejected_by_reason: Dict[str, int] = {}

    # -- recording -----------------------------------------------------------
    def observe_request(self, route: str, error: bool = False) -> None:
        """Count one HTTP request against its route (and errors separately).

        Paths outside :data:`KNOWN_ROUTES` are counted as
        :data:`OTHER_ROUTE`.
        """
        if route not in KNOWN_ROUTES:
            route = OTHER_ROUTE
        with self._lock:
            self.requests_total += 1
            self.requests_by_route[route] = self.requests_by_route.get(route, 0) + 1
            if error:
                self.http_errors += 1
        _REQUESTS.labels(route=route).inc()
        if error:
            _HTTP_ERRORS.inc()

    def observe_scan(
        self,
        n_designs: int,
        n_cache_hits: int,
        n_errors: int,
        seconds: float,
        model: Optional[str] = None,
    ) -> None:
        """Record one completed ``/scan`` request and its end-to-end latency.

        ``model`` is the registered model name the request was routed to
        (multi-model serving); when given, per-model request/design
        counters are kept alongside the totals.
        """
        with self._lock:
            self.scan_requests += 1
            self.designs_total += n_designs
            self.cache_hits += n_cache_hits
            self.design_errors += n_errors
            self._latency.observe(seconds)
            if model is not None:
                self.scans_by_model[model] = self.scans_by_model.get(model, 0) + 1
                self.designs_by_model[model] = (
                    self.designs_by_model.get(model, 0) + n_designs
                )
        _SCAN_REQUESTS.inc()
        _DESIGNS.inc(n_designs)
        _CACHE_HITS.inc(n_cache_hits)
        _DESIGN_ERRORS.inc(n_errors)
        _LATENCY.observe(seconds)
        if model is not None:
            _MODEL_SCANS.labels(model=model).inc()
            _MODEL_DESIGNS.labels(model=model).inc(n_designs)

    def observe_batch(self, n_requests: int, n_designs: int) -> None:
        """Record one micro-batch flush (its request and design counts)."""
        with self._lock:
            self.batches_total += 1
            self.batched_designs_total += n_designs
            self.max_batch_designs = max(self.max_batch_designs, n_designs)
        _BATCHES.inc()
        _BATCHED_DESIGNS.inc(n_designs)

    def observe_feature_hits(self, n_hits: int) -> None:
        """Count designs served from the model-independent feature tier.

        A feature hit is a design that needed a forward pass (the result
        cache missed — e.g. right after a hot reload) but skipped HDL
        parsing and feature extraction because its content hash was in the
        feature store.
        """
        with self._lock:
            self.feature_hits += n_hits
        _FEATURE_HITS.inc(n_hits)

    def observe_reload(self) -> None:
        """Count one model hot-reload (automatic or via ``POST /reload``)."""
        with self._lock:
            self.reloads += 1
        _RELOADS.inc()

    def observe_shadow(self, n_designs: int) -> None:
        """Count one challenger shadow scan (champion–challenger rollout)."""
        with self._lock:
            self.shadow_scans += 1
            self.shadow_designs += n_designs
        _SHADOW_SCANS.inc()
        _SHADOW_DESIGNS.inc(n_designs)

    def observe_rejected(self, reason: str) -> None:
        """Count one request shed by overload protection.

        ``reason`` is one of ``overload`` (the global admission gate),
        ``deadline`` (the request's ``X-Repro-Deadline-Ms`` expired), or
        ``connection_budget`` (a per-connection pipelining/outbuf budget
        was exceeded).
        """
        with self._lock:
            self.rejected_by_reason[reason] = (
                self.rejected_by_reason.get(reason, 0) + 1
            )
        _REJECTED.labels(reason=reason).inc()

    def observe_promotion(self, forced: bool = False) -> None:
        """Count one champion promotion (``forced`` for ``POST /promote``)."""
        with self._lock:
            self.promotions += 1
            if forced:
                self.forced_promotions += 1
        _PROMOTIONS.inc()
        if forced:
            _FORCED_PROMOTIONS.inc()

    # -- reading -------------------------------------------------------------
    def sync_exposition(self) -> None:
        """Refresh point-in-time gauges before a Prometheus render."""
        _UPTIME.set(self.uptime_seconds())

    def uptime_seconds(self) -> float:
        """Seconds since this service started (no lock, no snapshot cost)."""
        return time.monotonic() - self._started_monotonic

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready view of every counter plus derived rates/percentiles."""
        with self._lock:
            mean_batch = (
                self.batched_designs_total / self.batches_total
                if self.batches_total
                else 0.0
            )
            hit_rate = (
                self.cache_hits / self.designs_total if self.designs_total else 0.0
            )
            return {
                "uptime_seconds": time.monotonic() - self._started_monotonic,
                "requests_total": self.requests_total,
                "requests_by_route": dict(self.requests_by_route),
                "http_errors": self.http_errors,
                "scan_requests": self.scan_requests,
                "designs_total": self.designs_total,
                "cache_hits": self.cache_hits,
                "cache_hit_rate": hit_rate,
                "feature_hits": self.feature_hits,
                "design_errors": self.design_errors,
                "batches_total": self.batches_total,
                "batched_designs_total": self.batched_designs_total,
                "mean_batch_designs": mean_batch,
                "max_batch_designs": self.max_batch_designs,
                "reloads": self.reloads,
                "scans_by_model": dict(self.scans_by_model),
                "designs_by_model": dict(self.designs_by_model),
                "shadow_scans": self.shadow_scans,
                "shadow_designs": self.shadow_designs,
                "promotions": self.promotions,
                "forced_promotions": self.forced_promotions,
                "rejected_by_reason": dict(self.rejected_by_reason),
                "latency_seconds": dict(
                    zip(
                        ("p50", "p95", "p99"),
                        self._latency.percentiles([50, 95, 99]),
                    ),
                    count=len(self._latency),
                ),
            }
