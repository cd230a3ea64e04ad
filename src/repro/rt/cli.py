"""``repro-rt``: every live run from the command line, one subcommand each.

* ``cluster`` - an N-node cluster (loopback by default, ``--transport
  udp`` for real sockets on 127.0.0.1) run for ``--duration`` wall
  seconds; prints per-node convergence.  ``--require-converged`` fails
  the run unless every node ends with finite two-sided bounds and every
  sample is sound - the contract the CI runtime smokes enforce.
* ``serve`` - a cluster with Cristian serving endpoints on the non-source
  nodes, swarmed by probing clients; prints the tier's scorecard
  (offered/served qps, shed rate, p99 client error bound, failovers,
  re-convergence after a primary crash).  ``--require-sound`` fails on
  any unsound accepted bound or a client stranded by a crash.
* ``strata`` - a stratum-0 core cluster (``c0..c{N-1}``, ``c0`` the
  source) plus ``--tiers`` downstream tiers (``t{k}n0..``, border
  ``t{k}n0``) anchored on the core's export nodes (every core node but
  the source, in order, so ``--crash-anchor T`` fail-stops the primary
  anchor ``c1`` and exercises re-election).  ``--procs`` runs each
  downstream tier in its own OS process over UDP.  Prints per-tier
  convergence and the gradient scorecard.
* ``tier`` - internal: the child process of ``strata --procs``.  It
  speaks the stdio handshake documented in
  :mod:`repro.rt.strata.federation`: one JSON boot line in,
  ``STRATA-ADDR`` out, ``STRATA-PEERS`` in, ``STRATA-DOC`` out.

``--out`` archives the run as a :mod:`repro.sim.serialize` v2 document
(plus a ``serving`` or ``strata`` section) that the analysis pipeline
loads like any simulated run.

One death contract for all of them: SIGINT (Ctrl-C) or ``--timeout``
expiry aborts at the next period edge, still prints and archives
whatever evidence exists (the document is marked ``"partial": true``)
and exits 130 or 124 before any ``--require-*`` gate is read - never a
traceback, never a hang.  Usage errors exit 2.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import signal
import sys
from typing import Awaitable, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from ..core.errors import ReproError
from ..core.events import ProcessorId
from .client import ClientConfig
from .clock import TimeBase
from .cluster import ClusterConfig, CrashSchedule, run_cluster
from .loadgen import ServeLoadConfig, run_serve_load
from .serve import ServeConfig
from .strata.federation import (
    ADDR_TAG,
    DOC_TAG,
    PEERS_TAG,
    FederationConfig,
    clock_from_plan,
    register_federation,
    run_federation,
    run_federation_procs,
    tier_endpoints,
)
from .strata.membership import FederationSpec, PeerDirectory, TierSpec, build_transport
from .strata.tier import TierRunner

__all__ = [
    "main",
    "build_parser",
    "build_clock_plans",
    "parse_crash",
    "run_abortable",
    "shape_links",
]

T = TypeVar("T")

#: exit status of a run cut short by SIGINT (the shell convention) or timeout
EXIT_INTERRUPTED = 130
EXIT_TIMEOUT = 124  # matches coreutils timeout(1)

SHAPES = ("line", "ring", "star", "full", "tree")

#: what a run subcommand hands the shared driver: the runner to start
#: under the death contract, and the report printing its outcome (which
#: returns whether a ``--require-*`` gate failed)
Prepared = Tuple[Callable[[asyncio.Event], Awaitable], Callable[[object], bool]]


def run_abortable(
    runner: Callable[[asyncio.Event], Awaitable[T]],
    timeout: Optional[float] = None,
) -> Tuple[T, Optional[str]]:
    """Run ``runner(abort)`` on a fresh loop with clean-death wiring.

    SIGINT and ``timeout`` expiry both set the abort event instead of
    tearing the loop down, so the runner winds down cooperatively and
    still returns its (partial) result.  Returns ``(result, why)`` with
    ``why`` in ``(None, "interrupt", "timeout")``.
    """
    why: List[Optional[str]] = [None]

    async def drive() -> T:
        abort = asyncio.Event()
        loop = asyncio.get_running_loop()

        def on_sigint() -> None:
            if why[0] is None:
                why[0] = "interrupt"
            abort.set()

        try:
            loop.add_signal_handler(signal.SIGINT, on_sigint)
            installed = True
        except (NotImplementedError, RuntimeError):  # non-main thread / platform
            installed = False

        async def watchdog() -> None:
            await asyncio.sleep(timeout)
            if why[0] is None:
                why[0] = "timeout"
            abort.set()

        guard = loop.create_task(watchdog()) if timeout is not None else None
        try:
            return await runner(abort)
        finally:
            if guard is not None:
                guard.cancel()
                try:
                    await guard
                except asyncio.CancelledError:
                    pass
            if installed:
                loop.remove_signal_handler(signal.SIGINT)

    return asyncio.run(drive()), why[0]


def shape_links(
    names: List[ProcessorId], shape: str
) -> List[Tuple[ProcessorId, ProcessorId]]:
    """The link set of a named topology over ``names``."""
    n = len(names)
    if shape == "line":
        return [(names[i], names[i + 1]) for i in range(n - 1)]
    if shape == "ring":
        links = [(names[i], names[i + 1]) for i in range(n - 1)]
        if n > 2:
            links.append((names[-1], names[0]))
        return links
    if shape == "star":
        return [(names[0], names[i]) for i in range(1, n)]
    if shape == "full":
        return [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)]
    if shape == "tree":
        # complete binary tree rooted at names[0]: node i hangs off (i-1)//2
        return [(names[(i - 1) // 2], names[i]) for i in range(1, n)]
    raise ValueError(f"unknown shape {shape!r}")


def parse_crash(text: str) -> CrashSchedule:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(f"crash spec {text!r} is not PROC:STOP[:RESTART]")
    restart = float(parts[2]) if len(parts) == 3 else None
    return CrashSchedule(proc=parts[0], stop_at=float(parts[1]), restart_at=restart)


def build_clock_plans(
    args, processors: Sequence[ProcessorId], anchors
) -> Dict[ProcessorId, Dict]:
    """Skew/drift plans (see :func:`clock_from_plan`) for every non-anchor node.

    The ``i``-th processor gets rate ``1 + i * skew_ppm`` or drift seed
    ``seed + i``; the anchors (a cluster's source, a federation's tier
    borders) keep monotonic clocks because they define real time.
    """
    plans: Dict[ProcessorId, Dict] = {}
    for index, proc in enumerate(processors):
        if proc in anchors:
            continue
        if args.drifting:
            plans[proc] = {
                "kind": "drifting",
                "seed": args.seed + index,
                "band_ppm": args.drift_ppm,
            }
        elif args.skew_ppm:
            plans[proc] = {"kind": "skewed", "rate": 1.0 + index * args.skew_ppm * 1e-6}
    return plans


# -- the parser -----------------------------------------------------------------------


def _add_typed(parser: argparse.ArgumentParser, rows) -> None:
    """Declare plain valued flags from ``(flag, type, default, help)`` rows."""
    for flag, kind, default, text in rows:
        parser.add_argument(flag, type=kind, default=default, help=text)


def _run_flags(period: float) -> argparse.ArgumentParser:
    """The cluster and death flags of every run subcommand, as a parent parser.

    Built per subcommand: argparse shares a parent's action objects with
    each child, so one instance cannot carry two ``--period`` defaults.
    """
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument(
        "--transport",
        choices=("loopback", "udp"),
        default="loopback",
        help="in-process loopback or real UDP sockets on 127.0.0.1 "
        "(strata --procs always uses udp)",
    )
    _add_typed(flags, (
        ("--duration", float, 3.0, "wall seconds to run"),
        ("--period", float, period, "gossip period in seconds"),
        ("--sample-period", float, 0.25, "estimate sampling period"),
        ("--skew-ppm", float, 0.0, "give the i-th node a fixed clock skew of i*this "
         "many ppm (the source and tier borders stay monotonic)"),
        ("--drift-ppm", float, 200.0, "advertised drift band for --drifting clocks "
         "(default 200)"),
        ("--seed", int, 0, "seed for jitter and clocks"),
        ("--timeout", float, None, "abort cleanly after this many wall seconds "
         "(partial archive, exit 124)"),
    ))
    flags.add_argument(
        "--drifting",
        action="store_true",
        help="give non-anchor nodes seeded piecewise-drifting clocks instead",
    )
    flags.add_argument(
        "--crash",
        metavar="PROC:STOP[:RESTART]",
        action="append",
        default=[],
        help="fail-stop PROC at STOP elapsed seconds (restart at RESTART)",
    )
    flags.add_argument("--out", help="archive the run as a serialize-v2 JSON document")
    return flags


def _add_topology(parser: argparse.ArgumentParser, shape: str) -> None:
    parser.add_argument("--nodes", type=int, default=3, help="cluster size (default 3)")
    parser.add_argument(
        "--shape",
        choices=SHAPES,
        default=shape,
        help=f"topology over n0..n{{N-1}}; n0 is the source/root (default {shape})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-rt",
        description="Run live EfficientCSA clusters, serving tiers and federations.",
    )
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    cluster = commands.add_parser(
        "cluster", parents=[_run_flags(0.25)], help="run a live cluster over loopback or UDP"
    )
    _add_topology(cluster, "line")
    cluster.add_argument(
        "--codec",
        choices=("binary", "json"),
        default="binary",
        help="default wire codec for every node (default binary)",
    )
    cluster.add_argument(
        "--json-node",
        metavar="PROC",
        action="append",
        default=[],
        help="pin PROC to the v2 JSON codec (mixed-codec interop testing)",
    )
    cluster.add_argument(
        "--require-converged",
        action="store_true",
        help="exit non-zero unless all nodes end bounded and all samples sound",
    )

    serve = commands.add_parser(
        "serve",
        parents=[_run_flags(0.1)],
        help="load-test the probe/reply serving tier of a live cluster",
    )
    _add_topology(serve, "full")
    serve.add_argument(
        "--crash-primary",
        metavar="STOP[:RESTART]",
        default=None,
        help="shortcut: fail-stop the primary server mid-load",
    )
    _add_typed(serve, (
        ("--servers", int, None, "serving endpoints, on n1..nS (default: every non-source node)"),
        ("--clients", int, 4, "swarm size (default 4)"),
        ("--eps-max", float, 0.05, "per-client target error; drives the eps/(2 rho) probe cadence"),
        ("--probe-timeout", float, 0.25, "per-probe client timeout"),
        ("--max-interval", float, 0.2, "slowest client probe cadence"),
        ("--bucket-rate", float, 500.0, "admitted probes/s per server"),
        ("--bucket-burst", float, 50.0, "admission burst per server"),
        ("--queue-limit", int, 64, "request queue bound per server"),
        ("--service-time", float, 0.0, "per-request service delay (models downstream work)"),
        ("--stale-after", float, 1.0, "estimator age (local s) beyond which replies degrade"),
        ("--warmup", float, 0.3, "gossip seconds before the swarm starts"),
    ))
    serve.add_argument(
        "--require-sound",
        action="store_true",
        help="exit non-zero on any unsound accepted bound or stranded client",
    )

    strata = commands.add_parser(
        "strata",
        parents=[_run_flags(0.25)],
        help="run a federated stratum hierarchy of live clusters",
    )
    _add_typed(strata, (
        ("--core-nodes", int, 3, "core cluster size (default 3)"),
        ("--tiers", int, 1, "number of downstream tiers (default 1)"),
        ("--tier-nodes", int, 2, "nodes per downstream tier (default 2)"),
        ("--sync-period", float, 0.2, "border-to-anchor delegation cadence (default 0.2)"),
        ("--max-age", float, 1.5, "adopted bounds older than this stop being served "
         "(default 1.5)"),
    ))
    strata.add_argument(
        "--core-shape",
        choices=SHAPES,
        default="full",
        help="core topology over c0..c{N-1}; c0 is the source (default full)",
    )
    strata.add_argument(
        "--tier-shape",
        choices=SHAPES,
        default="line",
        help="downstream topology; t{k}n0 is the border (default line)",
    )
    strata.add_argument(
        "--crash-anchor",
        type=float,
        metavar="T",
        help="fail-stop the primary anchor (c1) at T elapsed seconds",
    )
    for flag, text in (
        ("--procs", "run each downstream tier in its own OS process over UDP"),
        ("--require-sound", "exit non-zero on any soundness violation or a downstream "
         "tier that never produced a bounded external estimate"),
        ("--require-election", "exit non-zero unless at least one anchor re-election "
         "was recorded (pair with --crash-anchor)"),
    ):
        strata.add_argument(flag, action="store_true", help=text)

    commands.add_parser(
        "tier", help="internal: one downstream tier of strata --procs (stdio handshake)"
    )
    return parser


# -- the run subcommands --------------------------------------------------------------


def _cluster_config(args, names: List[ProcessorId], crashes, **extra) -> ClusterConfig:
    plans = build_clock_plans(args, names, {names[0]})
    return ClusterConfig(
        processors=tuple(names),
        links=tuple(shape_links(names, args.shape)),
        duration=args.duration,
        gossip_period=args.period,
        sample_period=args.sample_period,
        clocks={proc: clock_from_plan(plan) for proc, plan in plans.items()},
        transport=args.transport,
        crashes=tuple(crashes),
        seed=args.seed,
        **extra,
    )


def _node_names(args) -> List[ProcessorId]:
    if args.nodes < 2:
        raise ValueError("--nodes must be at least 2")
    return [f"n{i}" for i in range(args.nodes)]


def _cluster(args) -> Prepared:
    names = _node_names(args)
    config = _cluster_config(
        args,
        names,
        [parse_crash(text) for text in args.crash],
        codec=args.codec,
        codecs={proc: "json" for proc in args.json_node},
    )

    def report(result) -> bool:
        print(
            f"{args.nodes}-node {args.shape} over {args.transport}: "
            f"{result.messages_sent} messages, {result.messages_lost} lost, "
            f"{len(result.trace)} events"
        )
        all_converged = True
        for proc in names:
            stats = result.nodes[proc]
            if proc == config.source_proc:
                tag = "source"
            else:
                tag = "converged" if stats.converged else "UNBOUNDED"
                all_converged = all_converged and stats.converged
            unencodable = sum(link.unencodable for link in stats.links.values())
            dead = f"  unencodable={unencodable}" if unencodable else ""
            print(f"  {proc}: bound={stats.bound}  events={stats.events}  [{tag}]{dead}")
        violations = result.soundness_violations()
        if violations:
            print(f"  UNSOUND: {len(violations)} sample(s) exclude the truth")
        return args.require_converged and bool(violations or not all_converged)

    return (lambda abort: run_cluster(config, abort=abort)), report


def _serve(args) -> Prepared:
    names = _node_names(args)
    server_count = args.nodes - 1 if args.servers is None else args.servers
    if not (1 <= server_count < args.nodes):
        raise ValueError(
            f"--servers must be in [1, {args.nodes - 1}] "
            "(the source n0 serves the protocol, not probes)"
        )
    servers = tuple(names[1 : 1 + server_count])
    crashes = [parse_crash(text) for text in args.crash]
    if args.crash_primary is not None:
        crashes.append(parse_crash(f"{servers[0]}:{args.crash_primary}"))
    config = ServeLoadConfig(
        cluster=_cluster_config(args, names, crashes),
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

    def report(result) -> bool:
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
        events = result.failover_events()
        if events:
            print(f"  failovers: {len(events)}")
            for rt, client, src, dst in events:
                print(f"    t={rt:.2f}s {client}: {src} -> {dst}")
        stranded = []
        for name, value in sorted(result.reconvergence_times().items()):
            if math.isinf(value):
                stranded.append(name)
                print(f"  {name}: never recovered after the crash")
            else:
                print(f"  {name}: re-converged {value:.2f}s after the crash")
        if unsound:
            print(f"  UNSOUND: {len(unsound)} accepted bound(s) exclude the truth")
        return args.require_sound and bool(unsound or stranded)

    return (lambda abort: run_serve_load(config, abort=abort)), report


def _federation_spec(args) -> FederationSpec:
    """The c0../t{k}n0.. federation named by the CLI conventions."""
    core_names = [f"c{i}" for i in range(args.core_nodes)]
    exports = tuple(core_names[1:])  # every core node but the source
    tiers = [
        TierSpec(
            name="core",
            stratum=0,
            processors=tuple(core_names),
            links=tuple(shape_links(core_names, args.core_shape)),
            exports=exports,
        )
    ]
    for k in range(1, args.tiers + 1):
        names = [f"t{k}n{i}" for i in range(args.tier_nodes)]
        tiers.append(
            TierSpec(
                name=f"tier{k}",
                stratum=1,
                processors=tuple(names),
                links=tuple(shape_links(names, args.tier_shape)),
                border=names[0],
                anchors=exports,
            )
        )
    return FederationSpec(tiers=tuple(tiers))


def _strata(args) -> Prepared:
    if args.core_nodes < 3:
        raise ValueError("--core-nodes must be at least 3 (source + 2 exports)")
    if args.tier_nodes < 2 or args.tiers < 1:
        raise ValueError("need at least one downstream tier of two nodes")
    spec = _federation_spec(args)
    crashes = [parse_crash(text) for text in args.crash]
    if args.crash_anchor is not None:
        crashes.append(CrashSchedule(proc="c1", stop_at=args.crash_anchor))
    config = FederationConfig(
        spec=spec,
        duration=args.duration,
        gossip_period=args.period,
        sample_period=args.sample_period,
        transport="udp" if args.procs else args.transport,
        clock_plans=build_clock_plans(
            args, spec.all_processors, {tier.border_proc for tier in spec.tiers}
        ),
        crashes=tuple(crashes),
        sync_period=args.sync_period,
        max_age=args.max_age,
        seed=args.seed,
    )
    runner = run_federation_procs if args.procs else run_federation

    def report(result) -> bool:
        mode = "OS processes" if args.procs else config.transport
        print(
            f"{args.core_nodes}-core + {args.tiers}x{args.tier_nodes} federation "
            f"over {mode}: {result.messages_sent} messages, "
            f"{result.messages_lost} lost, {len(result.elections)} election(s)"
        )
        healthy = True
        for tier in result.tiers:
            external = [s for s in tier.run.samples if s.channel == "strata"]
            bounded = sum(1 for s in external if s.bound.is_bounded)
            violations = sum(1 for s in external if not s.sound)
            tag = "ok"
            if violations:
                tag, healthy = "UNSOUND", False
            elif tier.stratum > 0 and bounded == 0:
                tag, healthy = "NEVER-BOUNDED", False
            print(
                f"  {tier.name} (stratum {tier.stratum}): "
                f"{bounded}/{len(external)} external samples bounded, "
                f"{violations} violation(s) [{tag}]"
            )
            for event in tier.elections:
                print(
                    f"    election at rt={event.rt:.2f}: "
                    f"{event.previous} -> {event.new}"
                )
        for hops, row in result.gradient()["by_hops"].items():
            print(
                f"  gradient @{hops} hop(s): mean skew {row['mean_skew']:.6f}s "
                f"max {row['max_skew']:.6f}s over {row['pairs']} pair(s)"
            )
        internal_violations = len(result.soundness_violations())
        if internal_violations:
            print(f"  UNSOUND: {internal_violations} sample(s) exclude the truth")
            healthy = False
        failed = args.require_sound and not healthy
        if args.require_election and not result.elections:
            print("  NO-ELECTION: expected an anchor re-election", file=sys.stderr)
            failed = True
        return failed

    return (lambda abort: runner(config, abort=abort)), report


COMMANDS: Dict[str, Callable[..., Prepared]] = {
    "cluster": _cluster,
    "serve": _serve,
    "strata": _strata,
}


# -- the tier child -------------------------------------------------------------------


async def _await_peers(timeout: float) -> Optional[Dict]:
    """Wait for the parent's STRATA-PEERS relay (also the start barrier).

    stdin is read in a worker thread so the tier's event loop keeps
    running.  A missing relay is survivable - the boot line already
    carried the parent's addresses - so a timeout degrades to ``None``
    instead of failing the run.
    """
    loop = asyncio.get_running_loop()
    try:
        line = await asyncio.wait_for(
            loop.run_in_executor(None, sys.stdin.readline), timeout=timeout
        )
    except asyncio.TimeoutError:
        return None
    text = (line or "").strip()
    if not text.startswith(PEERS_TAG + " "):
        return None
    try:
        return json.loads(text[len(PEERS_TAG) + 1 :])
    except json.JSONDecodeError:
        return None


async def _run_tier(boot: Dict, abort: asyncio.Event) -> None:
    """Run one downstream tier to the shared deadline; print its STRATA-DOC.

    An abort winds the tier down at the next period edge and the payload
    still goes out with ``aborted`` set - the parent decides the exit.
    """
    config = FederationConfig.from_dict(boot["federation"])
    tier = config.spec.tier(boot["tier"])
    time_base = TimeBase(float(boot["origin"]))
    directory = PeerDirectory()
    register_federation(directory, config.spec)
    for name, (host, port) in boot.get("addresses", {}).items():
        directory.update_address(name, host, int(port))

    transport = build_transport("udp", directory, time_base=time_base)
    runner = TierRunner(
        config.tier_config(tier, transport_kind="udp"),
        transport=transport,
        time_base=time_base,
        directory=directory,
    )
    aborted = False
    try:
        await transport.start()
        await runner.start()
        own = {name: list(directory.addresses[name]) for name in tier_endpoints(tier)}
        print(ADDR_TAG + " " + json.dumps(own), flush=True)
        peers = await _await_peers(timeout=20.0)
        for name, (host, port) in (peers or {}).items():
            if name in directory:
                directory.update_address(name, host, int(port))
        aborted = await runner.run_sampling(abort)
    finally:
        await runner.finish()
        await transport.stop()
    result = runner.result(aborted=aborted)
    payload = {
        "tier": result.to_dict(),
        "document": result.run.to_document(),
        "aborted": aborted,
    }
    print(DOC_TAG + " " + json.dumps(payload), flush=True)


def _tier() -> int:
    line = sys.stdin.readline()
    if not line.strip():
        print("error: tier expects a JSON boot line on stdin", file=sys.stderr)
        return 2
    boot = json.loads(line)
    run_abortable(lambda abort: _run_tier(boot, abort))
    return 0


# -- the shared driver ----------------------------------------------------------------


def _conclude(args, result, why: Optional[str], report: Callable[[object], bool]) -> int:
    """Print, archive, then exit: 130/124 for an abort, else the gates' 1/0."""
    if result.aborted:
        print(f"aborted ({why}): partial evidence only", file=sys.stderr)
    failed = report(result)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(result.to_document(), handle)
        print(f"  archived -> {args.out}")
    if result.aborted:
        return EXIT_INTERRUPTED if why == "interrupt" else EXIT_TIMEOUT
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "tier":
        return _tier()
    try:
        if args.timeout is not None and args.timeout <= 0:
            raise ValueError("--timeout must be positive")
        runner, report = COMMANDS[args.command](args)
    except (ValueError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result, why = run_abortable(runner, args.timeout)
    return _conclude(args, result, why, report)


if __name__ == "__main__":
    sys.exit(main())
