"""The ``scan_cold`` and ``scan_reload`` workloads.

Both drive the scan system in its own process (:mod:`perfbench.system`),
one round at a time from a single closed-loop client.  A round is timed
inside that process around ``ScanEngine.from_artifact`` plus
``scan_sources``, as one ``python -m repro scan`` invocation would run
them, with both cache tiers attached and the default worker count.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence

from . import corpus, reference, spans
from .common import (ROOT, HostProbe, child_env, derive_seed, ensure_artifact, median, nproc, setup_metric,
                     tail)

#: System processes spawned per run; ``setup_s`` is the median of their set-up times.
SETUP_SPAWNS = 3
#: Round wall times the run length is planned with: a run makes
#: ``ceil(seconds / nominal)`` rounds, so both sides of a comparison do the
#: same work (the cache tiers grow with every round) and a run measures
#: about ``seconds`` at the speed the benchmark was written against.
COLD_NOMINAL_ROUND_S, RELOAD_NOMINAL_ROUND_S = 0.4, 0.3
MIN_ROUNDS = 16


def planned_rounds(seconds: float, nominal_s: float) -> int:
    return max(MIN_ROUNDS, math.ceil(seconds / nominal_s))


class System:
    """One process running the scan system; see :mod:`perfbench.system`."""

    def __init__(self, artifact: Path, cache_dir: Path) -> None:
        cache_dir.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.system", "--artifact", str(artifact),
             "--cache-dir", str(cache_dir)],
            cwd=str(ROOT),
            env=child_env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        ready = self._read()
        #: Spawn to ready: interpreter start, ``import repro``, artifact load.
        self.setup_s = time.perf_counter() - start
        self.import_s = ready["import_s"]

    def _read(self) -> Dict[str, Any]:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"scan system exited with code {self.proc.wait()}")
        return json.loads(line)

    def call(self, command: Dict[str, Any]) -> Dict[str, Any]:
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def round(self, artifact: Path, designs: Sequence[corpus.Design], trace: bool) -> Dict[str, Any]:
        return self.call(
            {"op": "round", "artifact": str(artifact), "trace": trace,
             "designs": [[name, source] for name, source, _ in designs]}
        )

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write(json.dumps({"op": "exit"}) + "\n")
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Tally:
    """Designs attempted, failed and mismatched, plus coverage and review counts."""

    def __init__(self) -> None:
        self.attempted = self.failed = self.covered = self.review = 0
        self.mismatches: List[str] = []

    def check(self, records: List[Dict[str, Any]], designs: Sequence[corpus.Design],
              references: List[Dict[str, Any]]) -> None:
        self.attempted += len(designs)
        problems = reference.mismatches(records, references)
        self.mismatches.extend(problems)
        if len(records) != len(designs):
            self.failed += len(designs)
            return
        for record, (_, _, label) in zip(records, designs):
            if record.get("decision") is None:
                self.failed += 1
                continue
            covered, review = reference.outcome(record, label)
            self.covered += covered
            self.review += review

    def answered(self) -> int:
        return self.attempted - self.failed

    def review_frac(self) -> Dict[str, float]:
        """Share of answered designs triaged to review (uncertain or empty region)."""
        return {"value": self.review / max(1, self.answered()), "n": self.answered()}


class Rounds:
    """Timed rounds of one run, split into untraced and traced ones."""

    def __init__(self) -> None:
        self.walls: List[float] = []
        self.traced_walls: List[float] = []
        self.layers: List[Dict[str, float]] = []
        self.self_time_checks: List[Dict[str, Any]] = []
        self.spans: List[Dict[str, Any]] = []

    def add(self, reply: Dict[str, Any], traced: bool) -> None:
        if not traced:
            self.walls.append(reply["wall_s"])
            return
        self.traced_walls.append(reply["wall_s"])
        self.layers.append(spans.round_layer_metrics(reply["spans"], reply["tiers"]))
        root = next(s for s in reply["spans"] if s["name"] == "round")
        self.self_time_checks.append(
            {"wall_s": root["duration_s"],
             "self_s_by_pid": spans.self_time_by_process(reply["spans"])}
        )
        round_index = len(self.traced_walls) - 1
        self.spans.extend({**span, "round": round_index} for span in reply["spans"])


def per_layer(rounds: Rounds, import_s: float) -> Dict[str, Any]:
    """Median per-round layer metrics of the traced rounds, plus tracing overhead."""
    names = list(rounds.layers[0])
    metrics: Dict[str, Any] = {
        name: {"value": median([layer[name] for layer in rounds.layers]), "n": len(rounds.layers)}
        for name in names
    }
    metrics["startup.import_ms"] = {"value": 1000.0 * import_s, "n": 1}
    metrics["trace.overhead_ms"] = {
        "value": 1000.0 * (median(rounds.traced_walls) - median(rounds.walls)),
        "n": len(rounds.traced_walls),
    }
    return metrics


def _is_traced(trace: bool, index: int) -> bool:
    # A traced run alternates traced and untraced rounds, so the tracing
    # overhead is measured on interleaved rounds of the same run.
    return trace and index % 2 == 0


def end_to_end(designs_per_round: int, rounds: Rounds, setup_s: List[float], factor: float,
               peak_rss_mb: float, tally: Tally) -> Dict[str, Any]:
    """The end-to-end metrics of a closed-loop scan workload (see README).

    Times are divided by the run's host factor (:class:`perfbench.common.HostProbe`).
    """
    ms = [1000.0 * w / factor for w in rounds.walls]
    round_ms = median(ms)
    return {
        "setup_s": setup_metric(setup_s, factor),
        "designs_per_s": {"value": designs_per_round / (round_ms / 1000.0), "unit": "1/s", "n": len(ms)},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB", "n": 1},
        "coverage": {"value": tally.covered / tally.answered(), "unit": "fraction", "n": tally.answered()},
    }


class Run:
    """One run's system process, host probe and tallies.

    ``SETUP_SPAWNS - 1`` throwaway system processes are spawned and closed
    first; the last one spawned runs the rounds.  The probe samples the
    host before every spawn and every timed round.
    """

    def __init__(self, artifact: Path, run_dir: Path, probe: HostProbe) -> None:
        self.probe = probe
        self.setup_s: List[float] = []
        for i in range(SETUP_SPAWNS - 1):
            self.system = self._spawn(artifact, run_dir / f"setup-{i}" / "cache")
            self.system.close()
        self.system = self._spawn(artifact, run_dir / "cache")
        self.tally, self.rounds = Tally(), Rounds()

    def _spawn(self, artifact: Path, cache_dir: Path) -> System:
        self.probe.sample()
        system = System(artifact, cache_dir)
        self.setup_s.append(system.setup_s)
        return system

    def round(self, artifact: Path, designs: Sequence[corpus.Design], references: List[Dict[str, Any]],
              traced: bool) -> None:
        self.probe.sample()
        reply = self.system.round(artifact, designs, traced)
        self.tally.check(reply["records"], designs, references)
        self.rounds.add(reply, traced)

    def result(self, designs_per_round: int, trace: bool) -> Dict[str, Any]:
        peak = self.system.call({"op": "stats"})["peak_rss_mb"]
        factor = self.probe.factor()
        walls = self.rounds.walls
        result = {
            "tally": self.tally,
            "end_to_end": end_to_end(designs_per_round, self.rounds, self.setup_s, factor, peak, self.tally),
            "details": {
                "host_factor": factor,
                "review_frac": self.tally.review_frac(),
                "raw_setup_s": self.setup_s,
                "raw_round_ms_p50": 1000.0 * median(walls),
                "round_ms_p50": 1000.0 * median(walls) / factor,
                "round_ms_tail": tail([1000.0 * w / factor for w in walls]),
            },
        }
        if trace:
            result["per_layer"] = per_layer(self.rounds, self.system.import_s)
            result["self_time_checks"] = self.rounds.self_time_checks
            result["spans"] = self.rounds.spans
        return result

    def close(self) -> None:
        self.system.close()


def scan_cold(seed: int, seconds: float, trace: bool, run_dir: Path) -> Dict[str, Any]:
    """Every round scans a fresh corpus: the CI / CLI cold path."""
    artifact = ensure_artifact()
    n_rounds = planned_rounds(seconds, COLD_NOMINAL_ROUND_S)
    prepared = reference.generate_with_references(str(artifact), "cold", seed, range(n_rounds), nproc())
    with HostProbe() as probe:
        run = Run(artifact, run_dir, probe)
        try:
            for index, (designs, references) in enumerate(prepared):
                run.round(artifact, designs, references, _is_traced(trace, index))
            return run.result(corpus.COLD_DESIGNS, trace)
        finally:
            run.close()


def scan_reload(seed: int, seconds: float, trace: bool, run_dir: Path) -> Dict[str, Any]:
    """Recalibrate, reload, rescan a corpus whose feature rows are stored."""
    import numpy as np
    from repro.engine.artifacts import load_detector, save_detector
    from repro.engine.training import recalibrate_detector
    from repro.features.pipeline import extract_design_modalities, MultimodalFeatures

    artifact = ensure_artifact()
    designs = corpus.reload_corpus(seed)
    pool = corpus.calibration_pool(seed)
    rows = [extract_design_modalities(source) for _, source, _ in pool]
    calibration = MultimodalFeatures(
        tabular=np.vstack([r[0] for r in rows]),
        graph=np.vstack([r[1] for r in rows]),
        graph_images=np.stack([r[2] for r in rows]),
        labels=np.array([label for _, _, label in pool]),
        names=[name for name, _, _ in pool],
    )
    memo = reference.MemoryRows()
    base_references = reference.Reference(str(artifact), memo).records(designs)
    model, manifest = load_detector(artifact)
    rng = np.random.default_rng(derive_seed(seed, corpus.RELOAD_CALIBRATION, 1))

    with HostProbe() as probe:
        run = Run(artifact, run_dir, probe)
        try:
            # Untimed: the cold scan that stores every feature row of the corpus.
            reply = run.system.round(artifact, designs, False)
            run.tally.check(reply["records"], designs, base_references)
            for index in range(planned_rounds(seconds, RELOAD_NOMINAL_ROUND_S)):
                chosen = rng.choice(len(pool), corpus.CALIBRATION_DESIGNS, replace=False)
                recalibrate_detector(model, calibration.subset(sorted(int(i) for i in chosen)))
                # A fresh directory per round: overwriting one would free
                # and reallocate its blocks between timed rounds.
                live = run_dir / f"artifact-{index}"
                save_detector(model, live, extra=manifest.get("extra"),
                              noodle_report=manifest.get("noodle_report"))
                references = reference.Reference(str(live), memo).records(designs)
                run.round(live, designs, references, _is_traced(trace, index))
            return run.result(corpus.RELOAD_DESIGNS, trace)
        finally:
            run.close()
