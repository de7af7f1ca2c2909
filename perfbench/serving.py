"""The ``serve_open`` workload: ``python -m repro serve`` under open-loop Poisson load.

The server runs with its shipped defaults (event-loop front-end, 25 ms /
64-design micro-batches, one extraction worker, both cache tiers) in its
own process.  After an untimed warm-up, a ``low`` and a ``mid`` fixed rate
alternate in windows, for latency at light and at moderate load.  A fifth
of the requests carry two to four designs; a fifth of the design slots
resubmit a design sent earlier in the run, so result-tier reads happen
beside writes.  These shares are an assumption: no record of real request
traffic exists to take them from (see README, "Request mix").
"""

from __future__ import annotations

import http.client
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from . import corpus, reference
from .common import (HostProbe, child_env, derive_seed, ensure_artifact, median, nproc, read_vm_hwm_mb,
                     setup_metric, tail)
from .loadgen import OpenLoop, PhaseResult, Request
from .scans import SETUP_SPAWNS, Tally

#: Request rates from the single-design open-loop measurements the
#: benchmark was planned with: median latency is still flat at both
#: (12.5 ms at 20 req/s, 13.6 ms at 50 req/s; 20.6 ms at 100 req/s).
LOW_RPS, MID_RPS = 20.0, 50.0
#: The low and mid rates alternate in this many window pairs, each rate
#: taking half of the run, so drift in the server's state (cache growth,
#: flush and compaction cost) and in the host's speed reaches both alike.
WINDOWS = 4
#: Untimed low-rate traffic a fresh server gets before the first window.
WARMUP_S = 1.0
#: Request mix (assumed, not measured): the share of requests carrying
#: ``MULTI_MIN``-``MULTI_MAX`` designs, and the share of design slots that
#: resubmit a design sent earlier.
MULTI_SHARE, MULTI_MIN, MULTI_MAX, RESUBMIT_SHARE = 0.2, 2, 4, 0.2


class DesignStream:
    """Seeded request shapes and design slots drawn from the design pool."""

    def __init__(self, seed: int, pool: List[corpus.Design]) -> None:
        import numpy as np

        self.pool = pool
        self.rng = np.random.default_rng(derive_seed(seed, corpus.SERVE_PLAN))
        self.fresh = 0
        self.exhausted = 0

    def requests(self, rate: float, seconds: float) -> List[Request]:
        rng, out, offset = self.rng, [], 0.0
        while True:
            offset += float(rng.exponential(1.0 / rate))
            if offset >= seconds:
                return out
            size = int(rng.integers(MULTI_MIN, MULTI_MAX + 1)) if rng.random() < MULTI_SHARE else 1
            slots = [self._slot() for _ in range(size)]
            body = {"sources": [{"name": self.pool[i][0], "source": self.pool[i][1]} for i in slots]}
            out.append(Request(offset, slots, body))

    def _slot(self) -> int:
        if self.fresh and self.rng.random() < RESUBMIT_SHARE:
            return int(self.rng.integers(0, self.fresh))
        if self.fresh == len(self.pool):
            self.exhausted += 1
            return int(self.rng.integers(0, self.fresh))
        self.fresh += 1
        return self.fresh - 1


class Server:
    """One ``python -m repro serve`` process in its own directory."""

    def __init__(self, artifact: Path, workdir: Path, trace: bool) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        self.workdir = workdir
        command = [sys.executable, "-m", "repro", "serve", "--artifact", str(artifact), "--port", "0"]
        if trace:
            command += ["--trace-dir", str(workdir / "trace")]
        self.stdout_path = workdir / "stdout.txt"
        start = time.perf_counter()
        with open(self.stdout_path, "w") as out, open(workdir / "stderr.txt", "w") as err:
            self.proc = subprocess.Popen(command, cwd=str(workdir), env=child_env(), stdout=out, stderr=err)
        self.port = self._wait_port()
        while True:
            try:
                status, _ = self.get("/healthz")
            except OSError:
                status = 0
            if status == 200:
                break
            time.sleep(0.005)
        #: Spawn to the first 200 from ``/healthz``.
        self.setup_s = time.perf_counter() - start

    def _wait_port(self) -> int:
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with code {self.proc.returncode}")
            for line in self.stdout_path.read_text().splitlines():
                if " on http://" in line:
                    return int(line.split(" on http://", 1)[1].split()[0].rsplit(":", 1)[1])
            time.sleep(0.005)

    def get(self, path: str) -> Tuple[int, Dict[str, Any]]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    def cpu_s(self) -> float:
        """CPU seconds the server process has used (user + system, all threads)."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def spans(self) -> List[Dict[str, Any]]:
        spans = []
        for path in sorted((self.workdir / "trace").glob("*.jsonl")):
            spans.extend(json.loads(line) for line in path.read_text().splitlines() if line)
        return spans

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def _latency_ms(result: PhaseResult) -> List[float]:
    return [1000.0 * r.latency_s for r in result.ok()]


class Phases:
    """The requests of one server's run."""

    def __init__(self) -> None:
        self.warmup = PhaseResult([])
        self.low = PhaseResult([])
        self.mid = PhaseResult([])
        #: CPU seconds the server used over the low and mid windows.
        self.cpu_s = 0.0

    def all(self) -> List[PhaseResult]:
        return [self.warmup, self.low, self.mid]


def _phases(server: "Server", stream: DesignStream, seconds: float, probe: HostProbe) -> Tuple[OpenLoop, Phases]:
    """Warm-up, then the low and mid rates in alternating windows.

    The host is sampled before every window and after the last, while the
    generator is idle and the server has answered everything.
    """
    phases = Phases()
    gen = OpenLoop("127.0.0.1", server.port, nproc())
    try:
        # Untimed: the first scans of a fresh server pay one-off costs.
        phases.warmup = gen.run(stream.requests(LOW_RPS, WARMUP_S))
        cpu_start = server.cpu_s()
        for _ in range(WINDOWS):
            probe.sample()
            phases.low.requests += gen.run(stream.requests(LOW_RPS, seconds / 2 / WINDOWS)).requests
            probe.sample()
            phases.mid.requests += gen.run(stream.requests(MID_RPS, seconds / 2 / WINDOWS)).requests
        phases.cpu_s = server.cpu_s() - cpu_start
        probe.sample()
    finally:
        gen.close()
    return gen, phases


def end_to_end(setup_s: List[float], factor: float, phases: Phases, peak_rss_mb: float,
               tally: Tally) -> Dict[str, Any]:
    """The end-to-end metrics of ``serve_open`` (see README).

    Times are divided by the run's host factor (:class:`perfbench.common.HostProbe`).
    """
    served = sum(len(request.designs) for phase in (phases.low, phases.mid) for request in phase.ok())
    return {
        "setup_s": setup_metric(setup_s, factor),
        "designs_per_s": {"value": factor * served / phases.cpu_s, "unit": "1/s", "n": served},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB", "n": 1},
        "coverage": {"value": tally.covered / max(1, tally.answered()), "unit": "fraction", "n": tally.answered()},
    }


def check_requests(requests: List[Request], pool: List[corpus.Design],
                   references: List[Dict[str, Any]]) -> Tally:
    """Check every answered design against its reference.

    A refused, dropped or unanswered request fails the run, as a missing
    verdict does on the scan workloads: its designs count as failed and
    as mismatches.
    """
    tally = Tally()
    for request in requests:
        designs = [pool[i] for i in request.designs]
        if request.status != 200:
            tally.attempted += len(designs)
            tally.failed += len(designs)
            tally.mismatches.append(
                f"request due at {request.offset:.3f}s into its window: status {request.status}, "
                f"{len(designs)} designs without a verdict"
            )
            continue
        tally.check(request.records, designs, [references[i] for i in request.designs])
    return tally


def serve_open(seed: int, seconds: float, trace: bool, run_dir: Path) -> Dict[str, Any]:
    import numpy as np

    artifact = ensure_artifact()
    mean_designs = (1 - MULTI_SHARE) + MULTI_SHARE * (MULTI_MIN + MULTI_MAX) / 2.0
    expected = (LOW_RPS * (WARMUP_S + seconds / 2) + MID_RPS * seconds / 2) * mean_designs
    if trace:  # the untraced twin draws its own designs
        expected *= 2
    n_chunks = math.ceil(1.2 * expected * (1 - RESUBMIT_SHARE) / corpus.SERVE_CHUNK)
    prepared = reference.generate_with_references(str(artifact), "serve", seed, range(n_chunks), nproc())
    # Each chunk lists its designs by family, Trojan-free first; shuffled,
    # every window draws the same mix of families and labels.
    pool = [design for designs, _ in prepared for design in designs]
    references = [record for _, records in prepared for record in records]
    order = np.random.default_rng(derive_seed(seed, corpus.SERVE_POOL)).permutation(len(pool))
    pool = [pool[i] for i in order]
    references = [references[i] for i in order]
    stream = DesignStream(seed, pool)

    setup_s: List[float] = []
    baseline = Phases()
    with HostProbe() as probe:
        for i in range(SETUP_SPAWNS - 1):
            probe.sample()
            server = Server(artifact, run_dir / f"setup-{i}", False)
            setup_s.append(server.setup_s)
            try:
                if trace and i == SETUP_SPAWNS - 2:
                    # Untraced twin of the traced run: the tracing overhead.
                    baseline = _phases(server, stream, seconds, probe)[1]
            finally:
                server.close()

        probe.sample()
        server = Server(artifact, run_dir / "server", trace)
        setup_s.append(server.setup_s)
        try:
            gen, phases = _phases(server, stream, seconds, probe)
            metrics_doc = server.get("/metrics")[1] if trace else None
            peak = read_vm_hwm_mb(server.proc.pid)
        finally:
            server.close()
        factor = probe.factor()
    spans = server.spans() if trace else []

    tally = check_requests([r for phase in phases.all() + baseline.all() for r in phase.requests],
                           pool, references)

    low_ms, mid_ms = _latency_ms(phases.low), _latency_ms(phases.mid)
    late_tail = tail([1000.0 * x for x in gen.late])
    result: Dict[str, Any] = {
        "tally": tally,
        "end_to_end": end_to_end(setup_s, factor, phases, peak, tally),
        "details": {"pool_designs": len(pool), "pool_exhausted_slots": stream.exhausted,
                    "host_factor": factor, "review_frac": tally.review_frac(),
                    "raw_setup_s": setup_s, "server_cpu_s": phases.cpu_s,
                    # Raw: the host probe does not track these (see README).
                    "latency_ms_p50.low": {"value": median(low_ms), "n": len(low_ms)},
                    "latency_ms_p50.mid": {"value": median(mid_ms), "n": len(mid_ms)},
                    "latency_ms_tail.low": tail(low_ms), "latency_ms_tail.mid": tail(mid_ms),
                    "loadgen.late_ms_tail": late_tail,
                    "loadgen.sent": gen.sent, "loadgen.reconnects": gen.reconnects},
    }
    if trace:
        result["per_layer"] = _serve_layers(metrics_doc, spans, mid_ms, _latency_ms(baseline.mid), gen, late_tail)
        result["spans"] = spans
    return result


def _span_ms(spans: List[Dict[str, Any]], name: str) -> List[float]:
    return [1000.0 * s["duration_s"] for s in spans if s["name"] == name]


def _serve_layers(doc: Dict[str, Any], spans: List[Dict[str, Any]], mid_ms: List[float],
                  baseline_mid: List[float], gen: OpenLoop, late_tail: Dict[str, float]) -> Dict[str, Any]:
    """Per-layer serve metrics: counters from ``/metrics``, times from the server's spans."""
    batch_ms = _span_ms(spans, "serve/batch")
    scan_ms = _span_ms(spans, "serve/scan")
    rejected = doc.get("rejected_by_reason", {})

    def med(values: List[float]) -> float:
        return median(values) if values else 0.0

    metrics = {
        "serve.batches": float(doc["batches_total"]),
        "serve.designs_per_batch": float(doc["mean_batch_designs"]),
        "serve.rejected.overload": float(rejected.get("overload", 0)),
        "serve.rejected.deadline": float(rejected.get("deadline", 0)),
        "serve.rejected.connection_budget": float(rejected.get("connection_budget", 0)),
        "serve.cache_hit_ratio": float(doc["cache_hit_rate"]),
        "serve.batch_ms": med(batch_ms),
        "serve.queue_ms": max(0.0, med(scan_ms) - med(batch_ms)),
        "serve.http_ms": med(mid_ms) - med(scan_ms),
        "engine.extract_ms": med(_span_ms(spans, "scan/extract")),
        "engine.cache.lookup_ms": med(_span_ms(spans, "scan/cache_lookup")),
        "engine.assemble_ms": med(_span_ms(spans, "scan/featurize")),
        "loadgen.late_ms_tail": late_tail["value"],
        "loadgen.sent": float(gen.sent),
        "loadgen.reconnects": float(gen.reconnects),
        "trace.overhead_ms": med(mid_ms) - med(baseline_mid),
    }
    return {name: {"value": value, "n": len(batch_ms)} for name, value in metrics.items()}
