"""``repro-serve``: load-test the Cristian serving tier from the shell.

Stands up a live cluster, attaches serving endpoints to the non-source
nodes, swarms them with probing clients, and prints the tier's
scorecard: offered/served queries per second, shed rate, p99 client
error bound, failover count, and re-convergence time after a primary
crash.  ``--out`` archives the full run document (the cluster's
serialize-v2 document plus a ``serving`` section).

Robustness contract (shared with ``repro-rt``): SIGINT or ``--timeout``
expiry winds the swarm down cooperatively, archives the partial
document (``"partial": true``), and exits non-zero - no traceback, no
hang.  ``--require-sound`` makes the exit status a soundness gate:
non-zero if any client accepted a bound excluding true source time, or
if a scheduled crash stranded a client without recovery.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import List, Optional

from .client import ClientConfig
from .cli import (
    _clocks,
    add_cluster_flags,
    add_death_flags,
    bad_timeout,
    parse_crash,
    run_to_death,
    shape_links,
)
from .cluster import ClusterConfig
from .loadgen import ServeLoadConfig, run_serve_load
from .serve import ServeConfig

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Load-test the probe/reply serving tier of a live cluster.",
    )
    cluster = parser.add_argument_group("cluster")
    cluster.add_argument("--nodes", type=int, default=3, help="cluster size (default 3)")
    cluster.add_argument(
        "--shape",
        choices=("line", "ring", "star", "full", "tree"),
        default="full",
        help="topology over n0..n{N-1}; n0 is the source/root (default full)",
    )
    add_cluster_flags(cluster, period=0.1)
    cluster.add_argument(
        "--crash-primary",
        metavar="STOP[:RESTART]",
        default=None,
        help="shortcut: fail-stop the primary server mid-load",
    )

    serving = parser.add_argument_group("serving tier")
    serving.add_argument(
        "--servers",
        type=int,
        default=None,
        help="serving endpoints, on n1..nS (default: every non-source node)",
    )
    serving.add_argument(
        "--clients", type=int, default=4, help="swarm size (default 4)"
    )
    serving.add_argument(
        "--eps-max",
        type=float,
        default=0.05,
        help="per-client target error; drives the eps/(2 rho) probe cadence",
    )
    serving.add_argument(
        "--probe-timeout", type=float, default=0.25, help="per-probe client timeout"
    )
    serving.add_argument(
        "--max-interval", type=float, default=0.2, help="slowest client probe cadence"
    )
    serving.add_argument(
        "--bucket-rate", type=float, default=500.0, help="admitted probes/s per server"
    )
    serving.add_argument(
        "--bucket-burst", type=float, default=50.0, help="admission burst per server"
    )
    serving.add_argument(
        "--queue-limit", type=int, default=64, help="request queue bound per server"
    )
    serving.add_argument(
        "--service-time",
        type=float,
        default=0.0,
        help="per-request service delay (models downstream work)",
    )
    serving.add_argument(
        "--stale-after",
        type=float,
        default=1.0,
        help="estimator age (local s) beyond which replies degrade",
    )
    serving.add_argument(
        "--warmup", type=float, default=0.3, help="gossip seconds before the swarm starts"
    )

    add_death_flags(parser, out_help="archive the run document as JSON")
    parser.add_argument(
        "--require-sound",
        action="store_true",
        help="exit non-zero on any unsound accepted bound or stranded client",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.nodes < 2:
        print("error: --nodes must be at least 2", file=sys.stderr)
        return 2
    if bad_timeout(args):
        return 2
    names = [f"n{i}" for i in range(args.nodes)]
    server_count = args.nodes - 1 if args.servers is None else args.servers
    if not (1 <= server_count < args.nodes):
        print(
            f"error: --servers must be in [1, {args.nodes - 1}] "
            "(the source n0 serves the protocol, not probes)",
            file=sys.stderr,
        )
        return 2
    servers = tuple(names[1 : 1 + server_count])
    try:
        crashes = [parse_crash(text) for text in args.crash]
        if args.crash_primary is not None:
            crashes.append(parse_crash(f"{servers[0]}:{args.crash_primary}"))
        config = ServeLoadConfig(
            cluster=ClusterConfig(
                processors=tuple(names),
                links=tuple(shape_links(names, args.shape)),
                duration=args.duration,
                gossip_period=args.period,
                sample_period=args.sample_period,
                clocks=_clocks(args, names),
                transport=args.transport,
                crashes=tuple(crashes),
                seed=args.seed,
            ),
            servers=servers,
            serve=ServeConfig(
                bucket_rate=args.bucket_rate,
                bucket_burst=args.bucket_burst,
                queue_limit=args.queue_limit,
                service_time=args.service_time,
                stale_after=args.stale_after,
            ),
            clients=args.clients,
            client_template=ClientConfig(
                name="c",
                servers=("unset",),
                eps_max=args.eps_max,
                probe_timeout=args.probe_timeout,
                max_interval=args.max_interval,
                seed=args.seed,
            ),
            warmup=args.warmup,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    result, death = run_to_death(
        lambda abort: run_serve_load(config, abort=abort), args.timeout
    )
    unsound = result.unsound_accepted
    p99 = result.p99_error_bound()
    print(
        f"{args.nodes}-node {args.shape}, {len(servers)} server(s), "
        f"{args.clients} client(s) over {args.transport}: "
        f"{result.offered_qps():.1f} qps offered, {result.served_qps():.1f} served"
    )
    p99_text = f"{p99:.4f}s" if p99 is not None else "n/a"
    print(
        f"  shed rate {result.shed_rate():.1%}, "
        f"accepted {len(result.accepted_samples)} "
        f"({len(unsound)} unsound), p99 error bound {p99_text}"
    )
    for proc, node in sorted(result.servers.items()):
        stats = node.stats
        print(
            f"  {proc}: {stats.replies} replies "
            f"({stats.degraded_replies} degraded), {stats.shed_total} shed "
            f"{dict(sorted(stats.shed.items()))}"
        )
    stranded = []
    events = result.failover_events()
    if events:
        print(f"  failovers: {len(events)}")
        for rt, client, src, dst in events:
            print(f"    t={rt:.2f}s {client}: {src} -> {dst}")
    reconv = result.reconvergence_times()
    if reconv:
        for name, value in sorted(reconv.items()):
            if math.isinf(value):
                stranded.append(name)
                print(f"  {name}: never recovered after the crash")
            else:
                print(f"  {name}: re-converged {value:.2f}s after the crash")
    if unsound:
        print(f"  UNSOUND: {len(unsound)} accepted bound(s) exclude the truth")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(result.to_document(), handle)
        print(f"  archived -> {args.out}")
    if death is not None:
        return death
    if args.require_sound and (unsound or stranded):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
