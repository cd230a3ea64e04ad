"""Compare a fresh pytest-benchmark JSON run against a committed baseline.

The perf-regression gate behind ``make bench-compare``: re-runs of the
core benchmark suite are diffed name-by-name against ``BENCH_core.json``
and the process exits non-zero when any benchmark slowed down beyond the
tolerance, so CI turns performance regressions into red builds instead of
silent drift.

Stdlib only (CI installs nothing for it).  Usage::

    python benchmarks/compare.py BENCH_core.json BENCH_fresh.json \
        [--tolerance 0.25] [--report compare_report.md] \
        [--assert-speedup FAST SLOW MIN_RATIO]...
    python benchmarks/compare.py summarize BENCH_raw.json BENCH_core.json

* the committed baseline is a *summary*: per benchmark only
  ``mean/median/stddev/min/max/rounds`` (pytest-benchmark's raw JSON
  carries every sample - 3 MB and a 150k-line diff per rebless).
  ``summarize`` writes it from a raw run; either format is accepted
  wherever a file is read.

* tolerance is relative: ``--tolerance 0.25`` fails a benchmark whose
  mean grew more than 25% over baseline.  The ``BENCH_TOLERANCE``
  environment variable supplies the default (CI sets it loose - shared
  runners are noisy; locally the flag can be much tighter).
* a baseline benchmark missing from the fresh run fails the gate
  (a deleted benchmark must come with a refreshed baseline); benchmarks
  only in the fresh run are reported but pass.
* ``--assert-speedup FAST SLOW MIN_RATIO`` (repeatable) additionally
  requires ``mean(SLOW) / mean(FAST) >= MIN_RATIO`` *within the fresh
  run* - machine-independent, used to pin the compacted numpy AGDP
  backend's required speedup over the dict backend and the binary wire
  codec's speedup over JSON.
* ``--report PATH`` writes the comparison table as markdown (uploaded as
  a CI artifact).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List


SUMMARY_FORMAT = "repro-bench-summary/1"
SUMMARY_STATS = ("mean", "median", "stddev", "min", "max", "rounds")


def _load(path: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data.get("benchmarks"), (list, dict)):
        raise SystemExit(f"{path}: not a benchmark JSON file (no 'benchmarks')")
    return data


def _stats_by_name(benchmarks) -> Dict[str, dict]:
    """Summary form (name -> stats) of either format's ``benchmarks``."""
    if isinstance(benchmarks, dict):
        return benchmarks
    return {bench["name"]: bench["stats"] for bench in benchmarks}


def load_means(path: str) -> Dict[str, float]:
    """Benchmark name -> mean seconds from a raw or summary JSON file."""
    return {
        name: float(stats["mean"])
        for name, stats in _stats_by_name(_load(path)["benchmarks"]).items()
    }


def summarize(raw_path: str, out_path: str) -> int:
    """Write the committed summary form of a raw pytest-benchmark run."""
    raw = _load(raw_path)
    machine = raw.get("machine_info", {})
    summary = {
        "format": SUMMARY_FORMAT,
        "datetime": raw.get("datetime"),
        "commit": raw.get("commit_info", {}).get("id"),
        "machine": {
            "cpu": machine.get("cpu", {}).get("brand_raw"),
            "python": machine.get("python_version"),
            "system": machine.get("system"),
        },
        "benchmarks": {
            name: {key: stats[key] for key in SUMMARY_STATS}
            for name, stats in sorted(_stats_by_name(raw["benchmarks"]).items())
        },
    }
    with open(out_path, "w") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    print(f"{out_path}: {len(summary['benchmarks'])} benchmark summaries")
    return 0


def format_seconds(value: float) -> str:
    if value < 1e-3:
        return f"{value * 1e6:.1f}us"
    if value < 1.0:
        return f"{value * 1e3:.2f}ms"
    return f"{value:.3f}s"


def main(argv: List[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["summarize"]:
        if len(argv) != 3:
            raise SystemExit("usage: compare.py summarize RAW.json OUT.json")
        return summarize(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed baseline JSON (BENCH_core.json)")
    parser.add_argument("fresh", help="freshly generated benchmark JSON")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("BENCH_TOLERANCE", "0.25")),
        help="relative slowdown allowed before failing (default: "
        "$BENCH_TOLERANCE or 0.25)",
    )
    parser.add_argument(
        "--report", metavar="PATH", help="write the comparison table as markdown"
    )
    parser.add_argument(
        "--assert-speedup",
        nargs=3,
        action="append",
        default=[],
        metavar=("FAST", "SLOW", "MIN_RATIO"),
        help="require mean(SLOW)/mean(FAST) >= MIN_RATIO in the fresh run",
    )
    args = parser.parse_args(argv)
    if args.tolerance < 0:
        parser.error("--tolerance must be non-negative")

    baseline = load_means(args.baseline)
    fresh = load_means(args.fresh)

    rows = []  # (name, base, new, ratio, status)
    failures = []
    for name in sorted(baseline):
        base = baseline[name]
        if name not in fresh:
            rows.append((name, base, None, None, "MISSING"))
            failures.append(f"{name}: present in baseline but not in the fresh run")
            continue
        new = fresh[name]
        ratio = new / base if base > 0 else float("inf")
        if ratio > 1.0 + args.tolerance:
            status = "REGRESSED"
            failures.append(
                f"{name}: {format_seconds(base)} -> {format_seconds(new)} "
                f"({ratio:.2f}x, tolerance {1.0 + args.tolerance:.2f}x)"
            )
        else:
            status = "ok"
        rows.append((name, base, new, ratio, status))
    for name in sorted(set(fresh) - set(baseline)):
        rows.append((name, None, fresh[name], None, "NEW"))

    speedups = []  # (fast, slow, required, actual, ok)
    for fast, slow, min_ratio in args.assert_speedup:
        required = float(min_ratio)
        missing = [n for n in (fast, slow) if n not in fresh]
        if missing:
            failures.append(
                f"speedup gate {slow} vs {fast}: missing from the fresh run: "
                + ", ".join(missing)
            )
            speedups.append((fast, slow, required, None, False))
            continue
        actual = fresh[slow] / fresh[fast]
        ok = actual >= required
        if not ok:
            failures.append(
                f"speedup gate: {slow} / {fast} = {actual:.2f}x, "
                f"required >= {required:.2f}x"
            )
        speedups.append((fast, slow, required, actual, ok))

    lines = [
        f"# Benchmark comparison",
        "",
        f"- baseline: `{args.baseline}`",
        f"- fresh: `{args.fresh}`",
        f"- tolerance: {args.tolerance:.2f} (fail above {1.0 + args.tolerance:.2f}x)",
        "",
        "| benchmark | baseline | fresh | ratio | status |",
        "|---|---|---|---|---|",
    ]
    for name, base, new, ratio, status in rows:
        lines.append(
            "| {} | {} | {} | {} | {} |".format(
                name,
                format_seconds(base) if base is not None else "-",
                format_seconds(new) if new is not None else "-",
                f"{ratio:.2f}x" if ratio is not None else "-",
                status,
            )
        )
    if speedups:
        lines += [
            "",
            "| speedup gate | required | actual | status |",
            "|---|---|---|---|",
        ]
        for fast, slow, required, actual, ok in speedups:
            lines.append(
                "| {} vs {} | >= {:.2f}x | {} | {} |".format(
                    slow,
                    fast,
                    required,
                    f"{actual:.2f}x" if actual is not None else "-",
                    "ok" if ok else "FAILED",
                )
            )
    report = "\n".join(lines) + "\n"
    print(report)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(report)

    if failures:
        print(f"FAILED: {len(failures)} perf gate violation(s)", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"perf gate passed: {len(rows)} benchmark(s) within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
