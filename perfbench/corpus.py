"""Seeded workload inputs: labelled Verilog designs from ``repro.trojan``.

Every design is a ``(name, source, label)`` triple; the system under test
only ever receives the name and the source.  The same workload seed always
yields the same designs, byte for byte.
"""

from __future__ import annotations

from typing import List, Tuple

from .common import derive_seed

Design = Tuple[str, str, int]

#: Seed tags, one per input stream.
COLD_ROUND, RELOAD_CORPUS, RELOAD_CALIBRATION, SERVE_POOL, SERVE_PLAN = 1, 2, 3, 4, 5

#: Designs per ``scan_cold`` round and in the ``scan_reload`` corpus.  The
#: reload corpus is large because its share of designs sent to review
#: depends on which designs sit near the decision boundary: with 192 designs
#: that share varied by 30% between seeds, with 576 by 14%.
COLD_DESIGNS = 64
RELOAD_DESIGNS = 576
#: Labelled designs per ``scan_reload`` recalibration (the CLI's default corpus size).
CALIBRATION_DESIGNS = 54
#: Labelled designs the recalibrations draw from.
CALIBRATION_POOL = 216
#: Designs generated per chunk of the ``serve_open`` design pool.
SERVE_CHUNK = 96


def suite(seed: int, n: int) -> List[Design]:
    """``n`` designs of all five host families, one third Trojan-infected."""
    from repro.trojan import SuiteConfig, build_suite

    n_infected = max(1, n // 3)
    benchmarks = build_suite(
        SuiteConfig(n_trojan_free=n - n_infected, n_trojan_infected=n_infected, seed=seed)
    )
    return [(b.name, b.source, int(b.label)) for b in benchmarks]


def cold_round(seed: int, index: int) -> List[Design]:
    """The never-seen corpus of ``scan_cold`` round ``index``."""
    return suite(derive_seed(seed, COLD_ROUND, index), COLD_DESIGNS)


def reload_corpus(seed: int) -> List[Design]:
    """The fixed corpus every ``scan_reload`` round rescans."""
    return suite(derive_seed(seed, RELOAD_CORPUS), RELOAD_DESIGNS)


def calibration_pool(seed: int) -> List[Design]:
    """Labelled designs the ``scan_reload`` recalibrations sample from."""
    return suite(derive_seed(seed, RELOAD_CALIBRATION), CALIBRATION_POOL)


def serve_chunk(seed: int, index: int) -> List[Design]:
    """Chunk ``index`` of the ``serve_open`` design pool."""
    return suite(derive_seed(seed, SERVE_POOL, index), SERVE_CHUNK)
