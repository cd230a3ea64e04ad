"""What a recovery costs as the run gets longer: the growth table.

Runs the ``sim-churn-hardened`` scenario of the layered benchmark (built
from ``bench.sim_workloads.BUILDERS``, as ``scripts/profile_workload.py``
does) at several scales - scale 1 is the benchmark's 480 simulated
seconds - one child process per scale so that peak RSS is that scale's
own, and prints per scale: the longest replay log, what each of the seven
recoveries replayed and how long ``_recover`` took, the largest first
payload a healed node sent a neighbor, ``max_payload`` over the whole run
and peak RSS.

Exits non-zero when the most events any recovery replayed at the largest
scale exceeds 1.2x the same at the smallest (or 1.2x ``CHECKPOINT_EVERY``,
whichever is larger: below the constant the position of a corruption
between two checkpoints decides, not the run length).  Counts, not
milliseconds, so the verdict cannot flake.

Usage (``make growth``)::

    python scripts/recovery_growth.py [--scales 1 2 4] [--seed 0]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from typing import Dict, List

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import bench  # noqa: E402

bench.add_src_to_path()

from bench.sim_workloads import BUILDERS, CHANNEL  # noqa: E402
from repro.core.csa import CHECKPOINT_EVERY, EfficientCSA  # noqa: E402

WORKLOAD = "sim-churn-hardened"
GROWTH_LIMIT = 1.2


def measure(scale: float, seed: int) -> Dict:
    """Run the scenario at ``scale`` in this process and report its row."""
    recover_ms: List[float] = []
    first_payloads: List[int] = []
    #: per processor: neighbors that have not heard from it since it healed
    owed: Dict[str, set] = {}
    recover, on_send = EfficientCSA._recover, EfficientCSA.on_send

    def timed_recover(self, at_lt, reason):
        start = time.perf_counter()
        recover(self, at_lt, reason)
        recover_ms.append((time.perf_counter() - start) * 1e3)
        owed[self.proc] = set(self.history.neighbors)

    def noting_send(self, event):
        payload = on_send(self, event)
        waiting = owed.get(self.proc)
        if waiting and event.dest in waiting:
            waiting.discard(event.dest)
            first_payloads.append(len(payload.records))
        return payload

    EfficientCSA._recover, EfficientCSA.on_send = timed_recover, noting_send
    try:
        scenario = BUILDERS[WORKLOAD](seed, scale)
        scenario.sim.run_until(scenario.end)
    finally:
        EfficientCSA._recover, EfficientCSA.on_send = recover, on_send
    sim = scenario.sim
    estimators = [sim.estimator(proc, CHANNEL) for proc in sorted(sim.processors)]
    return {
        "scale": scale,
        "log": max(len(est._log.events) for est in estimators),
        "replayed": [e.replayed for est in estimators for e in est.recovery_events],
        "recover_ms": [round(ms, 1) for ms in recover_ms],
        "first_payload": max(first_payloads, default=0),
        "max_payload": max(est.stats().max_payload_records for est in estimators),
        "rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "checks": scenario.checks(sim),
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scales", type=float, nargs="+", default=[1, 2, 4])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--one", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.one is not None:
        print(json.dumps(measure(args.one, args.seed)))
        return 0

    rows = []
    for scale in sorted(args.scales):
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--one", str(scale),
             "--seed", str(args.seed)],
            check=True, capture_output=True, text=True,
        )
        rows.append(json.loads(child.stdout.splitlines()[-1]))
    print(f"{WORKLOAD} seed {args.seed}, CHECKPOINT_EVERY = {CHECKPOINT_EVERY}")
    print(f"{'scale':>5} {'log':>6} {'first_payload':>13} {'max_payload':>11} "
          f"{'rss_mib':>7}  replayed per recovery | _recover ms")
    ok = True
    for row in rows:
        print(f"{row['scale']:>5g} {row['log']:>6} {row['first_payload']:>13} "
              f"{row['max_payload']:>11} {row['rss_mib']:>7}  "
              f"{row['replayed']} | {row['recover_ms']}")
        failed = [name for name, passed in row["checks"].items() if not passed]
        if failed:
            ok = False
            print(f"FAILED at scale {row['scale']:g}: {', '.join(failed)}")
    smallest, largest = max(rows[0]["replayed"]), max(rows[-1]["replayed"])
    limit = GROWTH_LIMIT * max(smallest, CHECKPOINT_EVERY)
    verdict = "ok" if largest <= limit else "FAILED"
    print(f"{verdict}: max replayed {smallest} at scale {rows[0]['scale']:g}, "
          f"{largest} at scale {rows[-1]['scale']:g} (limit {limit:g})")
    return 0 if ok and largest <= limit else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
