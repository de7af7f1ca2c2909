"""Paths, seeds, statistics and provenance shared by the benchmark modules."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: Repository root: the directory holding ``perfbench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything the benchmark writes lives under here (ignored by git).
WORK = ROOT / ".bench_build" / "perfbench"
ARTIFACT = WORK / "artifact"

#: Samples that must lie beyond a ``*_tail`` percentile.
TAIL_BEYOND = 10

#: The environment the benchmark was started with; the system's processes
#: get it (plus ``PYTHONPATH``), whatever the benchmark sets for its own.
SYSTEM_ENV = dict(os.environ)

#: Seconds :func:`probe_s` took, as a median, on the host the bounds were
#: set on (a 2-vCPU VM).  Timing metrics are reported at this host speed.
PROBE_REFERENCE_S = 0.010


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1)


def child_env() -> Dict[str, str]:
    """Environment for processes running the system: ``src`` and the benchmark importable."""
    env = dict(SYSTEM_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    env["PYTHONUNBUFFERED"] = "1"
    # A fixed string-hash seed takes set and dict iteration order, and the
    # work that follows it, out of the run-to-run variance.
    env["PYTHONHASHSEED"] = "0"
    env.pop("REPRO_FAILPOINTS", None)
    return env


def use_src() -> None:
    """Make ``repro`` importable from this checkout's ``src`` (and nowhere else)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no system to benchmark: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def derive_seed(seed: int, *tags: int) -> int:
    """A 32-bit seed derived from the workload seed and integer tags."""
    import numpy as np

    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def ensure_artifact() -> Path:
    """Train the benchmark's detector once per checkout (``repro train`` defaults).

    Training is set-up, not workload: the artifact is a pure function of
    the code and the CLI's default corpus seed, so every run of one
    checkout scans with the same detector.
    """
    if (ARTIFACT / "manifest.json").is_file():
        return ARTIFACT
    WORK.mkdir(parents=True, exist_ok=True)
    staging = WORK / f"artifact.tmp-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    subprocess.run(
        [sys.executable, "-m", "repro", "train", "--artifact", str(staging), "--seed", "0"],
        cwd=str(WORK),
        env=child_env(),
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=600,
    )
    try:
        os.replace(staging, ARTIFACT)
    except OSError:  # a concurrent run installed it first
        shutil.rmtree(staging, ignore_errors=True)
    return ARTIFACT


# -- host speed ---------------------------------------------------------------


def probe_s() -> float:
    """Seconds a fixed pure-Python kernel (about 10 ms of work) takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(60000):
        total += i * i % 7
    table = {}
    for i in range(20000):
        table[str(i)] = i
    return time.perf_counter() - start


def host_factor(probes: Sequence[float]) -> float:
    """How much slower than the reference host a run's host was (median probe)."""
    return median(probes) / PROBE_REFERENCE_S


def serve_probes() -> None:
    """Body of the probe process: one :func:`probe_s` figure per stdin line."""
    for _ in sys.stdin:
        sys.stdout.write(f"{probe_s()!r}\n")
        sys.stdout.flush()


class HostProbe:
    """The host's speed, sampled next to a run's timed work.

    The host's speed for interpreter-bound code drifts by a quarter and
    more within minutes on a shared VM, and most of the system's time is
    interpreter-bound.  A run samples :func:`probe_s` before every set-up
    spawn and every timed round or window, and divides its times by the
    :func:`host_factor` of all its samples, so a run on a slow minute and a
    run on a fast one report the same work alike.  The probe runs in a
    process of its own that imports nothing of the system, so no change to
    the system moves it.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.proc = subprocess.Popen(
            [sys.executable, "-c", "from perfbench.common import serve_probes; serve_probes()"],
            cwd=str(ROOT), env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def sample(self) -> None:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        self.samples.append(float(self.proc.stdout.readline()))

    def factor(self) -> float:
        return host_factor(self.samples)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()

    def __enter__(self) -> "HostProbe":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def setup_metric(times: Sequence[float], factor: float) -> Dict[str, float]:
    """``setup_s``: the median of a run's set-up times, at the reference host speed."""
    return {"value": median(times) / factor, "unit": "s", "n": len(times)}


# -- statistics ---------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least :data:`TAIL_BEYOND` samples beyond it.

    With too few samples for any such percentile the median (50) is used.
    """
    if n <= TAIL_BEYOND:
        return 50
    return max(50, (100 * (n - TAIL_BEYOND)) // n)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: Sequence[float]) -> Dict[str, float]:
    """``{"value", "percentile", "n"}`` for the tail of ``values``."""
    pct = tail_percentile(len(values))
    return {"value": percentile(values, pct), "percentile": pct, "n": len(values)}


# -- provenance ---------------------------------------------------------------


def _git(*args: str) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", *args], cwd=str(ROOT), capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over every file under ``src`` (paths and bytes), for non-git checkouts."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def host_fingerprint() -> str:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    parts = [platform.node(), platform.machine(), platform.system(), model, str(os.cpu_count())]
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


def provenance(workload: str, seed: int, trace: bool) -> Dict[str, object]:
    import numpy as np

    rev = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--", "src", "perfbench", "BENCHMARK.json") if rev else None
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_rev": rev or "unknown",
        "git_dirty": bool(status) if rev else None,
        "src_sha256": source_digest(),
        "host": host_fingerprint(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def read_vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process, from ``/proc/<pid>/status``."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def dump_json(path: Path, payload: object) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True))
