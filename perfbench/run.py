"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload scan_cold --seed 1 --seconds 12 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
traced variant and prints every per-layer metric (layers a workload
bypasses read 0).  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
carries the provenance, the sample counts and the workload's details,
among them each ``*_tail`` value with the percentile it used.  The exit code
is 0 only when every returned verdict matched its reference.

``--workload all`` runs every workload, untraced and then traced, each in
a fresh process, and exits non-zero if any of those runs did.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402

#: Workloads and metrics, as declared in ``BENCHMARK.json``.
DECLARED: Dict[str, Any] = json.loads((common.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in DECLARED["workloads"])

#: Seconds after which a run gives up (the contract allows 180).
RUN_TIMEOUT_S = 170


def _timeout(_signum, _frame):
    raise TimeoutError(f"benchmark run exceeded {RUN_TIMEOUT_S}s")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    from perfbench import scans, serving

    runner = {"scan_cold": scans.scan_cold, "scan_reload": scans.scan_reload,
              "serve_open": serving.serve_open}[workload]
    # A run's working directory is left in place: deleting its thousands
    # of small files right away makes file creation in the runs that follow
    # measurably slower on some filesystems (see README, "Host").
    run_dir = common.WORK / "runs" / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    # Earlier runs' writes reach the disk now rather than during timed work.
    os.sync()
    return runner(seed, seconds, trace, run_dir)


def select_metrics(result: Dict[str, Any], trace: bool) -> Dict[str, Dict[str, Any]]:
    """The declared metrics, in declared order; a bypassed layer reads 0."""
    if not trace:
        measured = result["end_to_end"]
        return {m["name"]: dict(measured[m["name"]], unit=m["unit"]) for m in DECLARED["end_to_end"]}
    measured = result["per_layer"]
    return {m["name"]: dict(measured.get(m["name"], {"value": 0.0, "n": 0}), unit=m["unit"])
            for m in DECLARED["per_layer"]}


def self_time_ok(result: Dict[str, Any]) -> bool:
    """Per process, the layers' self-times sum to no more than the round's wall time."""
    return all(
        total <= check["wall_s"] + 1e-6
        for check in result.get("self_time_checks", [])
        for total in check["self_s_by_pid"].values()
    )


def child_pids() -> List[int]:
    """Processes whose parent is this one, from ``/proc``."""
    pids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:  # the process ended while being listed
            continue
        if int(fields[1]) == os.getpid():
            pids.append(int(stat.parent.name))
    return pids


def stop_children() -> None:
    """Kill and reap any process this one started that is still there.

    Every process a workload starts is closed and waited for by the
    workload itself; this is the last line on every path out of a run.
    """
    for pid in child_pids():
        print(f"perfbench: stopping leftover child process {pid}", file=sys.stderr)
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each run in its own process."""
    status = 0
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", trace]
            returncode = subprocess.run(command, check=False).returncode
            status = status or returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    trace = bool(args.trace)

    common.use_src()
    # The benchmark's own numpy work (references, recalibration) runs
    # between timed rounds; a multi-threaded BLAS would leave threads
    # spinning on the cores the next timed round needs.  The system's
    # processes keep the environment the benchmark was started with.
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"
    # Temporary files of this process and of every process it starts stay
    # inside the checkout.
    tmp = common.WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = common.SYSTEM_ENV["TMPDIR"] = str(tmp)
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(RUN_TIMEOUT_S)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, trace)
    finally:
        signal.alarm(0)
        stop_children()

    tally = result["tally"]
    metrics = select_metrics(result, trace)
    for name, metric in metrics.items():
        print(f"{args.workload:<12} {name:<34} {metric['value']:>14.6g} {metric['unit']:<8} (n={metric['n']})")
    for problem in tally.mismatches[:20]:
        print(f"MISMATCH: {problem}", file=sys.stderr)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = {
        "provenance": common.provenance(args.workload, args.seed, trace),
        "samples": {name: m["n"] for name, m in metrics.items()},
        "mismatches": len(tally.mismatches),
        **({"self_time_ok": self_time_ok(result)} if trace else {}),
        **result.get("details", {}),
    }
    common.dump_json(common.WORK / "results" / f"{stem}.json", {**details, "metrics": metrics})
    if trace:
        trace_path = common.WORK / "traces" / f"{stem}.jsonl"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text("".join(json.dumps(span) + "\n" for span in result["spans"]))
    print(json.dumps(details, sort_keys=True))

    correct = not tally.mismatches
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
