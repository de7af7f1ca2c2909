"""Smoke-size tests of the benchmark itself (``PYTHONPATH=src python -m pytest perfbench``)."""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

from perfbench import common, corpus, reference, scans, serving, spans
from perfbench.loadgen import Request
from perfbench.run import WORKLOADS, select_metrics
from perfbench.scans import System, Tally


@pytest.fixture(scope="module")
def artifact(tmp_path_factory) -> Path:
    """A tiny detector, trained through the CLI like the benchmark's own."""
    path = tmp_path_factory.mktemp("perfbench") / "artifact"
    subprocess.run(
        [sys.executable, "-m", "repro", "train", "--artifact", str(path), "--strategy", "late",
         "--epochs", "2", "--trojan-free", "10", "--trojan-infected", "5"],
        cwd=str(path.parent), env=common.child_env(), check=True, stdout=subprocess.DEVNULL, timeout=300,
    )
    return path


@pytest.fixture(scope="module")
def designs():
    return corpus.suite(seed=3, n=6)


def test_emitted_names_match_benchmark_json():
    declared = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    per_layer = {m["name"] for m in declared["per_layer"]}

    tally = Tally()
    tally.attempted = tally.covered = 1
    rounds = scans.Rounds()
    rounds.add({"wall_s": 0.1}, traced=False)
    assert set(scans.end_to_end(64, rounds, [1.0], 1.0, 100.0, tally)) == end_to_end
    answered = Request(0.0, [0], {"sources": []})
    answered.status, answered.due, answered.done = 200, 0.0, 0.01
    phases = serving.Phases()
    phases.low.requests, phases.mid.requests, phases.cpu_s = [answered], [answered], 1.0
    assert set(serving.end_to_end([1.0], 1.0, phases, 100.0, tally)) == end_to_end

    scan_layers = set(spans.round_layer_metrics([], {"feature_segments": 0, "feature_bytes": 0, "cache_bytes": 0}))
    doc = {"batches_total": 1, "mean_batch_designs": 1.0, "cache_hit_rate": 0.0, "rejected_by_reason": {}}
    generator = types.SimpleNamespace(sent=1, reconnects=0)
    serve_layers = set(serving._serve_layers(doc, [], [1.0], [1.0], generator, {"value": 0.0}))
    assert scan_layers | serve_layers | {"startup.import_ms", "trace.overhead_ms"} == per_layer

    fake = {"end_to_end": {name: {"value": 1.0, "n": 1} for name in end_to_end},
            "per_layer": {"hdl.lex_ms": {"value": 2.0, "n": 1}}}
    assert list(select_metrics(fake, trace=False)) == [m["name"] for m in declared["end_to_end"]]
    layered = select_metrics(fake, trace=True)
    assert list(layered) == [m["name"] for m in declared["per_layer"]]
    assert layered["hdl.lex_ms"]["value"] == 2.0 and layered["nn.forward_ms"]["value"] == 0.0


def test_same_seed_regenerates_identical_corpora():
    def dump(designs):
        return json.dumps(designs).encode()

    assert dump(corpus.cold_round(11, 0)) == dump(corpus.cold_round(11, 0))
    assert dump(corpus.serve_chunk(11, 2)) == dump(corpus.serve_chunk(11, 2))
    assert dump(corpus.cold_round(11, 0)) != dump(corpus.cold_round(12, 0))
    assert dump(corpus.cold_round(11, 0)) != dump(corpus.cold_round(11, 1))


def test_host_probe_samples_in_a_process_of_its_own():
    with common.HostProbe() as probe:
        probe.sample()
        probe.sample()
    assert len(probe.samples) == 2 and all(0 < x < 10 for x in probe.samples)
    assert probe.proc.returncode == 0
    assert common.setup_metric([1.0, 3.0, 2.0], 2.0)["value"] == 1.0


def test_tail_percentile_leaves_ten_samples_beyond():
    assert common.tail_percentile(10) == 50
    for n in (20, 37, 100, 1000):
        pct = common.tail_percentile(n)
        values = list(range(n))
        beyond = sum(v > common.percentile(values, pct) for v in values)
        assert beyond >= common.TAIL_BEYOND
        assert sum(v > common.percentile(values, pct + 1) for v in values) < common.TAIL_BEYOND or pct == 99


def test_gate_fails_on_planted_mismatch(artifact, designs):
    references = reference.Reference(str(artifact)).records(designs)
    assert reference.mismatches(copy.deepcopy(references), references) == []

    planted = copy.deepcopy(references)
    planted[2]["decision"]["p_value_trojan_free"] += 1e-9
    tally = Tally()
    tally.check(planted, designs, references)
    assert len(tally.mismatches) == 1 and "p_value_trojan_free" in tally.mismatches[0]

    planted = copy.deepcopy(references)
    planted[0]["decision"]["region_labels"] = [0, 1] if planted[0]["decision"]["region_labels"] != [0, 1] else [0]
    assert reference.mismatches(planted, references)
    planted = copy.deepcopy(references)
    planted[1] = dict(planted[1], decision=None, error="boom")
    assert reference.mismatches(planted, references)

    # Over HTTP: a refused request fails the run like a wrong verdict.
    answered, refused = Request(0.0, [0, 1], {}), Request(0.1, [2], {})
    answered.status, answered.records = 200, copy.deepcopy(references[:2])
    refused.status = 429
    assert serving.check_requests([answered], designs, references).mismatches == []
    tally = serving.check_requests([answered, refused], designs, references)
    assert len(tally.mismatches) == 1 and tally.failed == 1 and tally.attempted == 3


def test_traced_round_matches_reference_and_fits_its_wall_time(artifact, designs, tmp_path):
    references = reference.Reference(str(artifact)).records(designs)
    system = System(artifact, tmp_path / "cache")
    try:
        reply = system.round(artifact, designs, trace=True)
        untraced = system.round(artifact, corpus.suite(seed=4, n=6), trace=False)
    finally:
        system.close()
    assert reference.mismatches(reply["records"], references) == []
    assert untraced["spans"] == []

    recorded = reply["spans"]
    root = next(s for s in recorded if s["name"] == "round")
    wall = root["duration_s"]
    by_pid = spans.self_time_by_process(recorded)
    assert all(total <= wall + 1e-6 for total in by_pid.values())
    frontend = [s for s in recorded if s["name"] == "engine.frontend"]
    assert len(frontend) == len(designs)
    if common.nproc() > 1:  # pool workers' spans reached the trace
        assert {spans.process_of(s) for s in frontend}.isdisjoint({spans.process_of(root)})
        extract = next(s for s in recorded if s["name"] == "engine.extract")
        assert {s["parent_id"] for s in frontend} == {extract["span_id"]}
    layers = spans.round_layer_metrics(recorded, reply["tiers"])
    assert layers["hdl.tokens"] > 0 and layers["nn.rows"] > 0
    assert sum(v for k, v in layers.items() if k.endswith("_ms") and k not in
               ("engine.extract_ms", "engine.frontend_busy_ms")) > 0


def test_refuses_to_run_without_the_system(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(common.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan_cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=180,
        env={k: v for k, v in common.child_env().items() if k != "PYTHONPATH"},
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
