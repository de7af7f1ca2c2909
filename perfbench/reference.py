"""Correctness gate: the reference verdict for every design a workload sends.

The reference is a serial (``workers=1``), cache-less ``numpy``-backend
:class:`repro.engine.scan.ScanEngine` scan: no result tier, no on-disk
feature tier, no process pool.  Within one reference engine the extracted
feature rows are memoised in memory, so ``scan_reload`` extracts its fixed
corpus once and each recalibrated model only reruns the forward pass.
Every record the system returns -- fresh, cached, or served over HTTP -- must
equal its reference in p-values, prediction region and verdict.
"""

from __future__ import annotations

import multiprocessing
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .common import use_src
from .corpus import Design

#: Decision fields that must match the reference exactly.
DECISION_FIELDS = (
    "predicted_label",
    "probability_infected",
    "p_value_trojan_free",
    "p_value_trojan_infected",
    "region_labels",
    "credibility",
    "confidence",
)


class MemoryRows:
    """In-memory stand-in for a feature store: memoises rows within one reference."""

    def __init__(self) -> None:
        self.rows: Dict[str, Any] = {}
        #: Read by ``ScanEngine`` to count feature hits, as on a ``FeatureStore``.
        self.n_hits = 0

    def get(self, sha256: str) -> Optional[Any]:
        row = self.rows.get(sha256)
        if row is not None:
            self.n_hits += 1
        return row

    def put(self, sha256: str, row: Any) -> None:
        self.rows[sha256] = row

    def flush(self) -> None:
        return None


class Reference:
    """A serial, cache-less numpy scanner around one loaded artifact."""

    def __init__(self, artifact: str, rows: Optional[MemoryRows] = None) -> None:
        from repro.engine.artifacts import load_detector
        from repro.engine.scan import ScanEngine

        model, manifest = load_detector(artifact)
        self.rows = rows if rows is not None else MemoryRows()
        self.engine = ScanEngine(
            model,
            fingerprint=manifest.get("fingerprint", "unversioned"),
            feature_store=self.rows,  # type: ignore[arg-type]
            backend="numpy",
        )

    def records(self, designs: Sequence[Design]) -> List[Dict[str, Any]]:
        from repro.engine.scan import ScanSource

        sources = [ScanSource(name=name, source=source) for name, source, _ in designs]
        report = self.engine.scan_sources(sources, workers=1)
        return [record.to_dict() for record in report.records]


# -- parallel reference for the generated corpora ---------------------------

_WORKER_REFERENCE: Optional[Reference] = None


def _init_worker(artifact: str) -> None:
    global _WORKER_REFERENCE
    use_src()
    _WORKER_REFERENCE = Reference(artifact)


def _generate_and_reference(task: Tuple[str, int, int]) -> Tuple[List[Design], List[Dict[str, Any]]]:
    from . import corpus

    kind, seed, index = task
    designs = corpus.cold_round(seed, index) if kind == "cold" else corpus.serve_chunk(seed, index)
    assert _WORKER_REFERENCE is not None
    return designs, _WORKER_REFERENCE.records(designs)


def generate_with_references(
    artifact: str, kind: str, seed: int, indices: Iterable[int], processes: int
) -> List[Tuple[List[Design], List[Dict[str, Any]]]]:
    """Generate corpora ``kind`` (``cold`` rounds or ``serve`` chunks) and their references.

    Each corpus is generated and referenced inside one of ``processes``
    forked workers; each reference scan itself is serial.  Forked workers
    need no ``multiprocessing`` resource-tracker process, which would
    otherwise outlive the run.
    """
    tasks = [(kind, seed, index) for index in indices]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=max(1, min(processes, len(tasks))), initializer=_init_worker, initargs=(artifact,)) as pool:
        results = pool.map(_generate_and_reference, tasks, chunksize=1)
        pool.close()
        pool.join()
    return results


# -- the gate -----------------------------------------------------------------


def mismatches(records: Sequence[Dict[str, Any]], references: Sequence[Dict[str, Any]]) -> List[str]:
    """Describe every record that differs from its reference (empty when all match)."""
    problems: List[str] = []
    if len(records) != len(references):
        return [f"{len(records)} records returned for {len(references)} designs"]
    for i, (got, want) in enumerate(zip(records, references)):
        if got.get("sha256") != want["sha256"]:
            problems.append(f"record {i}: sha256 {got.get('sha256')} != {want['sha256']}")
            continue
        if got.get("error") or got.get("decision") is None:
            problems.append(f"record {i} ({want['sha256'][:12]}): no verdict: {got.get('error')}")
            continue
        for key in DECISION_FIELDS:
            if got["decision"][key] != want["decision"][key]:
                problems.append(
                    f"record {i} ({want['sha256'][:12]}): {key} "
                    f"{got['decision'][key]!r} != reference {want['decision'][key]!r}"
                )
    return problems


def outcome(record: Dict[str, Any], label: int) -> Tuple[bool, bool]:
    """``(covered, review)``: region holds the true label; design goes to review."""
    region = record["decision"]["region_labels"]
    return label in region, len(region) != 1
