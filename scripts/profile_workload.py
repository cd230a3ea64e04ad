"""cProfile one simulator workload of the layered benchmark, in-process.

Builds the scenario from ``bench.sim_workloads.BUILDERS`` twice at the same
seed, warms both up, then runs the timed window once plain and once under
``cProfile``.  The ratio of the two walls is printed beside the table:
``cProfile`` charges every Python call but nothing inside native code, so
the closer the ratio is to 1 the more the table's proportions can be
trusted.  Find candidates here; claim gains with ``make bench-ab``.

Usage (``make profile WORKLOAD=sim-ntp-tree31``)::

    python scripts/profile_workload.py WORKLOAD [--seed N] [--top K]
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import os
import pstats
import sys
import time
from typing import List, Optional

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import bench  # noqa: E402

bench.add_src_to_path()

from bench.sim_workloads import BUILDERS  # noqa: E402


def timed_window(workload: str, seed: int, profiler: Optional[cProfile.Profile]) -> float:
    """Wall seconds of the workload's timed window (warm-up excluded)."""
    scenario = BUILDERS[workload](seed, 1.0)
    scenario.sim.run_until(scenario.warm_until)
    gc.collect()
    start = time.perf_counter()
    if profiler is None:
        scenario.sim.run_until(scenario.end)
    else:
        profiler.runcall(scenario.sim.run_until, scenario.end)
    return time.perf_counter() - start


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--top", type=int, default=25, help="rows of the table")
    args = parser.parse_args(argv)

    plain = timed_window(args.workload, args.seed, None)
    profiler = cProfile.Profile()
    profiled = timed_window(args.workload, args.seed, profiler)
    pstats.Stats(profiler).sort_stats("tottime").print_stats(args.top)
    print(
        f"{args.workload} seed {args.seed}: timed window {plain:.2f} s plain, "
        f"{profiled:.2f} s under cProfile ({profiled / plain:.2f}x)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
