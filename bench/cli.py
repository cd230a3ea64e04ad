"""Command line: ``run``, ``trace``, ``check``, ``compare``, and the
``BENCHMARK.json`` contract entry (no sub-command)."""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

from . import runner
from .compare import compare, render
from .spec import END_TO_END, FAIL_RATIO, PER_LAYER, RUN_SECONDS, WORKLOADS


def _workloads(selected: Optional[List[str]]) -> List[str]:
    return selected or list(WORKLOADS)


def _write(path: Optional[str], document: Dict) -> None:
    if not path:
        return
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


def cmd_run(args) -> int:
    document = {"kind": "run", "env": runner.environment(), "workloads": {}}
    ok = True
    for workload in _workloads(args.workload):
        runs = [runner.run_worker(workload, args.seed, RUN_SECONDS) for _ in range(args.repeats)]
        summary = runner.aggregate(workload, runs)
        document["workloads"][workload] = summary
        for metric in END_TO_END + [FAIL_RATIO]:
            side = summary["metrics"].get(metric.name)
            if side is None:
                continue  # nothing of the kind on this workload
            count = summary["sample_counts"].get(metric.name)
            mark = "*" if workload in metric.primary else " "
            print(
                f"{workload:<20} {mark}{metric.name:<24} {side['median']:>14.6g} {metric.unit:<6}"
                f"[{side['min']:.6g}..{side['max']:.6g}]"
                + (f"  n={count}" if count is not None else "")
            )
        print(
            f"{workload:<20} ops failed/attempted {summary['ops_failed'][-1]}/"
            f"{summary['ops_attempted'][-1]}; window {summary['window_s'][-1]:.2f} s; "
            f"load before {max(summary['load_before']):.2f}"
            + (" NOISY" if summary["noisy"] else "")
            + (f"; loop busy {summary['loop_busy_share']:.2f}"
               if "loop_busy_share" in summary else "")
        )
        if isinstance(summary.get("digest"), str):
            recorded = runner.baseline_digest(workload, args.seed, float(RUN_SECONDS))
            if recorded is not None and recorded != summary["digest"]:
                print(f"warning: {workload} digest {summary['digest'][:16]} differs from the "
                      f"recorded baseline {recorded[:16]} (legal if float association changed)")
        failed = [name for name, passed in summary["checks"].items() if not passed]
        if failed:
            ok = False
            print(f"FAILED {workload}: {', '.join(failed)}")
    print("(* = a metric the issue names for that workload: the rows `compare` judges)")
    _write(args.out, document)
    return 0 if ok else 1


def cmd_trace(args) -> int:
    document = {"kind": "trace", "env": runner.environment(), "workloads": {}}
    ok = True
    os.makedirs(runner.OUT_DIR, exist_ok=True)
    for workload in _workloads(args.workload):
        spans = os.path.join(runner.OUT_DIR, f"trace-{workload}.jsonl")
        result = runner.traced_pair(workload, args.seed, RUN_SECONDS, spans=spans)
        layers = result["layers"]
        document["workloads"][workload] = {
            "seed": args.seed, "seconds": RUN_SECONDS, "layers": layers,
            "missing_hooks": result["missing_hooks"], "spans": result["spans"],
            "span_file": spans, "window_s": result["window_s"],
            "untraced_window_s": result["untraced_window_s"],
        }
        for metric in PER_LAYER:
            value = layers[metric.name]
            shown = "null" if value is None else f"{value:.6g}"
            print(f"{workload:<20} {metric.name:<36} {shown:>14} {metric.unit}")
        if result["missing_hooks"]:
            print(f"{workload:<20} missing hooks: {', '.join(result['missing_hooks'])}")
        if not result["correct"]:
            ok = False
            print(f"FAILED {workload}: a correctness check failed in the traced pair")
    _write(args.out, document)
    return 0 if ok else 1


def cmd_check(args) -> int:
    ok = True
    for workload in _workloads(args.workload):
        result = runner.run_worker(workload, args.seed, runner.CHECK_SECONDS, check=True)
        oracle = result["oracle"]
        failed = [name for name, passed in result["checks"].items() if not passed]
        print(
            f"{workload:<20} oracle parity at {oracle['checked']} finals over "
            f"{oracle['events']} events: {'ok' if not oracle['failures'] else 'FAILED'}"
            + (f"; failed checks: {', '.join(failed)}" if failed else "")
        )
        for failure in oracle["failures"]:
            print(f"  {failure}")
        ok = ok and result["correct"]
    return 0 if ok else 1


def cmd_compare(args) -> int:
    with open(args.a) as handle_a, open(args.b) as handle_b:
        rows, notes = compare(json.load(handle_a), json.load(handle_b))
    print(render(rows, notes))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


def cmd_contract(args) -> int:
    """``<command> --workload W --seed N --seconds S --trace 0|1``."""
    line = runner.contract_line(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(line))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "worker":
        from .worker import main as worker_main
        return worker_main(argv[1:])

    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    parser.set_defaults(handler=cmd_contract)
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    commands = parser.add_subparsers(dest="command")

    def sub(name: str, handler, text: str) -> argparse.ArgumentParser:
        child = commands.add_parser(name, help=text)
        child.set_defaults(handler=handler)
        return child

    for name, handler, text in (
        ("run", cmd_run, "every end-to-end metric, untraced, N repeats each in a fresh subprocess"),
        ("trace", cmd_trace, "one traced run per workload: the per-layer ledger and span files"),
        ("check", cmd_check, "each workload at ~1/20 length with from-scratch oracle parity"),
    ):
        child = sub(name, handler, text)
        child.add_argument("--workload", action="append", choices=list(WORKLOADS))
        child.add_argument("--seed", type=int, default=0)
        if name != "check":
            child.add_argument("--out", default=None, help="write the result document here")
    commands.choices["run"].add_argument("--repeats", type=int, default=3)
    child = sub("compare", cmd_compare, "judge result file B against base A")
    child.add_argument("a")
    child.add_argument("b")

    args = parser.parse_args(argv)
    if args.handler is cmd_contract and not args.workload:
        parser.error("give a sub-command, or --workload for the contract entry")
    try:
        return args.handler(args)
    except runner.WorkerError as exc:
        print(exc, file=sys.stderr)
        return 2
