"""Spawn workers, aggregate repeats, record the environment."""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from . import ROOT, SRC
from .spec import (END_TO_END, FAIL_RATIO, NO_WIRE_BYTES, PER_LAYER, RUN_SECONDS, SIM,
                   STAND_IN, WORKLOADS)

#: Pinned in every worker.  The two glibc malloc settings keep freed memory
#: in the process: asyncio reads each datagram into a fresh 256 KiB buffer
#: and shrinks it, and whenever that buffer happens to sit at the top of the
#: heap glibc trims the heap on every read and faults the pages back in on
#: the next (13k page faults/s against 150; ``serve-probe-udp`` then serves
#: 6.1k probes/s, not 9.6k, for seconds at a time, depending on heap layout)
PINNED_ENV = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "MALLOC_TRIM_THRESHOLD_": str(256 << 20), "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
}
#: a 1-minute load average above this before a run flags it ``noisy``
NOISY_LOAD = 1.0
#: extra set-up-only subprocesses per contract run; ``setup_s`` is the
#: median over them and the measured run's own set-up
SETUP_REPEATS = 4
#: ``check`` (and the contract line's optimality check) runs a workload at
#: about 1/20 of its length: the from-scratch oracle needs 15 s at a quarter
CHECK_SECONDS = RUN_SECONDS / 20.0
WORKER_TIMEOUT_S = 170

OUT_DIR = os.path.join(ROOT, "bench", "out")
BASELINE_RUN = os.path.join(ROOT, "bench", "baseline", "run.json")


class WorkerError(RuntimeError):
    """A worker exited non-zero or printed no result."""


def worker_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env.pop("REPRO_DEBUG", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


def load_average() -> float:
    try:
        return os.getloadavg()[0]
    except OSError:
        return 0.0


def run_worker(workload: str, seed: int, seconds: float, *, trace: bool = False,
               setup_only: bool = False, check: bool = False,
               spans: Optional[str] = None, hooks: Optional[list] = None) -> Dict:
    """One run in a fresh subprocess; returns the worker's result object."""
    load = load_average()
    command = [
        sys.executable, "-m", "bench", "worker", "--workload", workload,
        "--seed", str(seed), "--seconds", repr(float(seconds)), "--trace", str(int(trace)),
    ]
    if setup_only:
        command.append("--setup-only")
    if check:
        command.append("--check")
    if spans:
        command += ["--spans", spans]
    if hooks is not None:
        command += ["--hooks", json.dumps(hooks)]
    command += ["--t0", repr(time.monotonic())]
    done = subprocess.run(
        command, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=WORKER_TIMEOUT_S,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise WorkerError(
            f"worker for {workload} exited {done.returncode}:\n{done.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    result["load_before"] = load
    result["noisy"] = load > NOISY_LOAD
    return result


def environment() -> Dict:
    """What the numbers were measured on; stored in every result file."""
    def git(*args: str) -> str:
        try:
            return subprocess.run(
                ("git",) + args, cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            return "unknown"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "commit": git("rev-parse", "HEAD"),
        "dirty": git("status", "--porcelain", "--", "src") not in ("unknown", ""),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "pinned_env": PINNED_ENV,
        "gc": "gc.collect() before each timed window, collector left enabled",
        "run_seconds": RUN_SECONDS,
    }


def _spread(values: List[float]) -> Dict[str, float]:
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "values": values}


def aggregate(workload: str, runs: List[Dict]) -> Dict:
    """Median/min/max per end-to-end metric plus the determinism verdict."""
    names = [m.name for m in END_TO_END + [FAIL_RATIO] if m.name in runs[0]["metrics"]]
    out = {
        "workload": workload,
        "loop": WORKLOADS[workload][0],
        "seed": runs[0]["seed"],
        "seconds": runs[0]["seconds"],
        "repeats": len(runs),
        "metrics": {name: _spread([run["metrics"][name] for run in runs]) for name in names},
        "ops_attempted": [run["ops_attempted"] for run in runs],
        "ops_failed": [run["ops_failed"] for run in runs],
        "sample_counts": runs[-1]["sample_counts"],
        "window_s": [run["window_s"] for run in runs],
        "load_before": [run["load_before"] for run in runs],
        "noisy": any(run["noisy"] for run in runs),
        "checks": {
            key: all(run["checks"].get(key, False) for run in runs)
            for key in runs[0]["checks"]
        },
    }
    for extra in ("loop_busy_share", "open_loop", "closed_loop", "slice_probes_per_s",
                  "window_sys_share"):
        if extra in runs[-1]:
            out[extra] = runs[-1][extra]  # of the last repeat: context, not a metric
    if workload in SIM:
        digests = sorted({run["digest"] for run in runs})
        out["digest"] = digests[0] if len(digests) == 1 else digests
        out["counters"] = runs[0]["counters"]
        out["checks"]["repeats_identical"] = len(digests) == 1 and all(
            run["counters"] == runs[0]["counters"] for run in runs
        )
    out["correct"] = all(out["checks"].values())
    return out


def overhead_ratio(workload: str, traced: Dict, untraced: Dict) -> float:
    """Traced / untraced window time: host seconds of the same simulated
    work in sim, CPU per operation on the fixed-length asyncio windows."""
    if workload in SIM:
        return traced["window_s"] / untraced["window_s"]
    name = "cpu_ms_per_exchange"
    return traced["metrics"][name] / untraced["metrics"][name]


def traced_pair(workload: str, seed: int, seconds: float, *, spans: Optional[str] = None,
                hooks: Optional[list] = None) -> Dict:
    """An untraced and a traced run of the same inputs; the traced result
    comes back with ``trace.overhead_ratio`` filled in."""
    untraced = run_worker(workload, seed, seconds)
    traced = run_worker(workload, seed, seconds, trace=True, spans=spans, hooks=hooks)
    traced["layers"]["trace.overhead_ratio"] = overhead_ratio(workload, traced, untraced)
    traced["untraced_window_s"] = untraced["window_s"]
    traced["correct"] = traced["correct"] and untraced["correct"]
    return traced


def baseline_digest(workload: str, seed: int, seconds: float) -> Optional[str]:
    """The digest recorded on the baseline commit for the same inputs."""
    try:
        with open(BASELINE_RUN) as handle:
            entry = json.load(handle)["workloads"][workload]
    except (OSError, KeyError, ValueError):
        return None
    if entry.get("seed") == seed and entry.get("seconds") == seconds:
        digest = entry.get("digest")
        return digest if isinstance(digest, str) else None
    return None


def contract_line(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    """The ``BENCHMARK.json`` contract's result object for one invocation."""
    if trace:
        result = traced_pair(workload, seed, seconds)
        # the contract wants numbers: a layer whose hook is gone reads 0 here
        # and trace.missing_hooks says so; `bench trace` prints null instead
        metrics = {
            m.name: {"value": result["layers"][m.name] or 0, "unit": m.unit}
            for m in PER_LAYER
        }
    else:
        result = run_worker(workload, seed, seconds)
        measured = result["metrics"]
        setups = [result["setup_s"]] + [
            run_worker(workload, seed, seconds, setup_only=True)["setup_s"]
            for _ in range(SETUP_REPEATS)
        ]
        measured["setup_s"] = statistics.median(setups)
        if workload in SIM:
            measured["wire_bytes_per_exchange"] = NO_WIRE_BYTES
        for name, (repeated, factor) in STAND_IN.items():
            measured.setdefault(name, measured[repeated] * factor)
        metrics = {m.name: {"value": measured[m.name], "unit": m.unit} for m in END_TO_END}
        # optimality is the product and no bound on width_mean_s can guard it
        # across seeds: this seed's short variant must match the oracle exactly
        optimal = run_worker(workload, seed, CHECK_SECONDS, check=True)
        result["correct"] = result["correct"] and optimal["checks"]["oracle_parity"]
    return {
        "correct": bool(result["correct"]),
        "attempted": max(int(result["ops_attempted"]), 1),
        "failed": int(result["ops_failed"]),
        "metrics": metrics,
    }
