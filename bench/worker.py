"""One benchmark run, in its own process (``python -m bench worker ...``).

A fresh subprocess per run makes ``setup_s`` and ``peak_rss_mib`` facts of
that run.  The worker prints exactly one JSON object as its last line of
standard output; ``bench/runner.py`` spawns it and aggregates.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from typing import Dict, List, Optional

from . import add_src_to_path
from .spec import PER_LAYER, SIM
from .trace import HOOKS, STAT_FIELDS, Tracer, percentile


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(tracer: Tracer, window_s: float, counters: Dict[str, float]) -> Dict:
    """Every ``per_layer`` name: the ledger, the stats deltas, the workload's
    own counters; ``None`` for every metric of a layer with a missing hook."""
    out = tracer.ledger(window_s)
    spans = tracer.durations_by_name()
    for layer in STAT_FIELDS:
        out.update({f"{layer}.{k}": v for k, v in tracer.sums[layer].items()})
        out.update({f"{layer}.{k}": v for k, v in tracer.maxima[layer].items()})
    received = out["core.history.records_received"]
    out["core.history.dup_record_ratio"] = (
        out.pop("core.history.duplicate_records_received") / received if received else 0.0
    )
    out["core.agdp.batch_calls"] = len(spans.get("core.agdp:step_batch", ()))
    out["core.agdp.edge_calls"] = len(spans.get("core.agdp:insert_edge", ()))
    pairs = out["core.agdp.pair_updates"]
    agdp_s = out["core.agdp.self_s"] or 0.0
    out["core.agdp.ns_per_pair_update"] = agdp_s / pairs * 1e9 if pairs else 0.0
    out["core.validate.payloads_screened"] = len(spans.get("core.validate:validate_payload", ()))
    receives = spans.get("core.csa:on_receive", [])
    reads = spans.get("core.csa:estimate", []) + spans.get("core.csa:estimate_now", [])
    out["core.csa.on_receive_us_p50"] = (percentile(receives, 50) or 0.0) * 1e6
    out["core.csa.on_receive_us_p99"] = (percentile(receives, 99) or 0.0) * 1e6
    out["core.csa.estimate_us_p50"] = (percentile(reads, 50) or 0.0) * 1e6
    out["rt.codec.encode_us_per_sync"] = _mean(spans.get("rt.codec:encode.sync", [])) * 1e6
    out["rt.codec.decode_us_per_sync"] = _mean(spans.get("rt.codec:decode.sync", [])) * 1e6
    for codec, (frames, size) in tracer.sync_bytes.items():
        out[f"rt.codec.bytes_per_sync_{codec}"] = size / frames if frames else 0.0
    out["rt.transport.datagrams"] = out["rt.transport.calls"]
    out["rt.transport.bytes"] = tracer.sent_bytes
    out["trace.overhead_ratio"] = None  # needs the untraced twin; the runner fills it
    out.update(counters)
    for metric in PER_LAYER:
        out.setdefault(metric.name, 0)
    for layer in tracer.missing_layers():
        for metric in PER_LAYER:
            if metric.layer == layer:
                out[metric.name] = None
    return {metric.name: out[metric.name] for metric in PER_LAYER}


def main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(prog="python -m bench worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="the parent's time.monotonic() just before the spawn")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--spans", default=None, help="write the span file here")
    parser.add_argument("--hooks", default=None,
                        help="JSON hook table replacing the built-in one (selftest)")
    args = parser.parse_args(argv)

    add_src_to_path()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(HOOKS if args.hooks is None else json.loads(args.hooks))
    if args.workload in SIM:
        from .sim_workloads import run
    else:
        from .rt_workloads import run

    result = run(
        args.workload, args.seed, args.seconds, tracer,
        setup_done=lambda: time.monotonic() - args.t0,
        setup_only=args.setup_only, check=args.check,
    )
    result.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  traced=bool(args.trace))
    if not args.setup_only:
        result["metrics"]["setup_s"] = result["setup_s"]
        result["metrics"]["fail_ratio"] = result["ops_failed"] / max(result["ops_attempted"], 1)
        if "oracle" in result:
            result["checks"]["oracle_parity"] = not result["oracle"]["failures"]
        result["correct"] = all(result["checks"].values())
        if tracer is not None:
            # spans are synchronous CPU work, so the window's CPU time is the
            # base of the shares (sim: the root span's duration, see ledger)
            result["layers"] = layer_metrics(
                tracer, result["window_cpu_s"], result.pop("layer_counters")
            )
            result["missing_hooks"] = list(tracer.missing)
            result["spans"] = len(tracer.start)
            if args.spans:
                tracer.write_jsonl(args.spans)
        gc.collect()
        result["metrics"]["peak_rss_mib"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
    # counters read from numpy-backed stats arrive as numpy scalars
    sys.stdout.write("\n" + json.dumps(result, default=lambda o: o.item()) + "\n")
    return 0
