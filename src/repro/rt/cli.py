"""``repro-rt``: launch a live cluster from the command line.

Stands up an N-node cluster (loopback by default, ``--transport udp``
for real sockets on 127.0.0.1), runs it for ``--duration`` wall seconds,
prints per-node convergence, and optionally archives the run as a
:mod:`repro.sim.serialize` v2 document (``--out``) that the analysis CLI
and :func:`~repro.sim.serialize.load_run` consume like any simulated run.

``--require-converged`` makes the exit status a health check: non-zero
unless every node ends with finite two-sided bounds and every sample is
sound - the contract the CI runtime-smoke job enforces.

A live run must die cleanly: SIGINT (Ctrl-C) or ``--timeout`` expiry
aborts at the next period edge, still archives whatever evidence exists
(the document is marked ``"partial": true``), and exits non-zero -
never a traceback, never a hang.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from typing import Awaitable, Callable, List, Optional, Tuple, TypeVar

from ..core.events import ProcessorId
from ..sim.clock import PiecewiseDriftingClock
from .clock import ModelClockSource, SkewedClockSource
from .cluster import ClusterConfig, CrashSchedule, dump_rt_run, run_cluster

__all__ = [
    "main",
    "build_parser",
    "shape_links",
    "run_abortable",
    "run_to_death",
    "add_cluster_flags",
    "add_death_flags",
    "bad_timeout",
    "parse_crash",
]

T = TypeVar("T")

#: exit status of a run cut short by SIGINT (the shell convention) or timeout
EXIT_INTERRUPTED = 130
EXIT_TIMEOUT = 124  # matches coreutils timeout(1)


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


def run_to_death(
    runner: Callable[[asyncio.Event], Awaitable[T]],
    timeout: Optional[float] = None,
) -> Tuple[T, Optional[int]]:
    """:func:`run_abortable` plus the shared tail of the death contract.

    Returns ``(result, exit_code)``: ``None`` for a run that finished,
    else 130 (SIGINT) or 124 (timeout) after saying so on stderr.  The
    caller still prints and archives the partial evidence before
    returning the code.
    """
    result, why = run_abortable(runner, timeout)
    if not result.aborted:
        return result, None
    print(f"aborted ({why}): partial evidence only", file=sys.stderr)
    return result, EXIT_INTERRUPTED if why == "interrupt" else EXIT_TIMEOUT


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


def add_cluster_flags(
    parser,
    *,
    period: float,
    transport_help: str = "in-process loopback or real UDP sockets on 127.0.0.1",
    anchor: str = "source",
) -> None:
    """The cluster flags every runtime CLI shares, declared once.

    ``parser`` may be an argument group.  ``period`` is the CLI's default
    gossip period; ``anchor`` names the nodes whose clocks stay
    monotonic in the help text (``source`` or ``border``).
    """
    parser.add_argument(
        "--transport", choices=("loopback", "udp"), default="loopback", help=transport_help
    )
    parser.add_argument("--duration", type=float, default=3.0, help="wall seconds to run")
    parser.add_argument(
        "--period", type=float, default=period, help="gossip period in seconds"
    )
    parser.add_argument(
        "--sample-period", type=float, default=0.25, help="estimate sampling period"
    )
    parser.add_argument(
        "--skew-ppm",
        type=float,
        default=0.0,
        help=f"give the i-th non-{anchor} node a fixed clock skew of i*this many ppm",
    )
    parser.add_argument(
        "--drifting",
        action="store_true",
        help=f"give non-{anchor} nodes seeded piecewise-drifting clocks instead",
    )
    parser.add_argument(
        "--drift-ppm",
        type=float,
        default=200.0,
        help="advertised drift band for --drifting clocks (default 200)",
    )
    parser.add_argument(
        "--crash",
        metavar="PROC:STOP[:RESTART]",
        action="append",
        default=[],
        help="fail-stop PROC at STOP elapsed seconds (restart at RESTART)",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for jitter and clocks")


def add_death_flags(
    parser, out_help: str = "archive the run as a serialize-v2 JSON document"
) -> None:
    """``--out`` and ``--timeout``: the flags of the clean-death contract."""
    parser.add_argument("--out", help=out_help)
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="abort cleanly after this many wall seconds (partial archive, exit 124)",
    )


def bad_timeout(args) -> bool:
    """Reject a non-positive ``--timeout`` (usage error, exit 2)."""
    if args.timeout is None or args.timeout > 0:
        return False
    print("error: --timeout must be positive", file=sys.stderr)
    return True


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-rt",
        description="Run a live EfficientCSA cluster over loopback or UDP.",
    )
    parser.add_argument("--nodes", type=int, default=3, help="cluster size (default 3)")
    parser.add_argument(
        "--shape",
        choices=("line", "ring", "star", "full", "tree"),
        default="line",
        help="topology over n0..n{N-1}; n0 is the source/root (default line)",
    )
    add_cluster_flags(parser, period=0.25)
    parser.add_argument(
        "--codec",
        choices=("binary", "json"),
        default="binary",
        help="default wire codec for every node (default binary)",
    )
    parser.add_argument(
        "--json-node",
        metavar="PROC",
        action="append",
        default=[],
        help="pin PROC to the v2 JSON codec (mixed-codec interop testing)",
    )
    add_death_flags(parser)
    parser.add_argument(
        "--require-converged",
        action="store_true",
        help="exit non-zero unless all nodes end bounded and all samples sound",
    )
    return parser


def parse_crash(text: str) -> CrashSchedule:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(f"crash spec {text!r} is not PROC:STOP[:RESTART]")
    restart = float(parts[2]) if len(parts) == 3 else None
    return CrashSchedule(proc=parts[0], stop_at=float(parts[1]), restart_at=restart)


def _clocks(args, names: List[ProcessorId]):
    clocks = {}
    for index, name in enumerate(names):
        if index == 0:
            continue  # the source stays monotonic (it defines real time)
        if args.drifting:
            band = args.drift_ppm * 1e-6
            clocks[name] = ModelClockSource(
                PiecewiseDriftingClock(
                    args.seed + index,
                    r_min=1.0 - band,
                    r_max=1.0 + band,
                    mean_segment=1.0,
                )
            )
        elif args.skew_ppm:
            rate = 1.0 + index * args.skew_ppm * 1e-6
            clocks[name] = SkewedClockSource(rate)
    return clocks


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.nodes < 2:
        print("error: --nodes must be at least 2", file=sys.stderr)
        return 2
    names = [f"n{i}" for i in range(args.nodes)]
    try:
        crashes = tuple(parse_crash(text) for text in args.crash)
        config = ClusterConfig(
            processors=tuple(names),
            links=tuple(shape_links(names, args.shape)),
            duration=args.duration,
            gossip_period=args.period,
            sample_period=args.sample_period,
            clocks=_clocks(args, names),
            transport=args.transport,
            crashes=crashes,
            seed=args.seed,
            codec=args.codec,
            codecs={proc: "json" for proc in args.json_node},
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if bad_timeout(args):
        return 2
    result, death = run_to_death(
        lambda abort: run_cluster(config, abort=abort), args.timeout
    )
    print(
        f"{args.nodes}-node {args.shape} over {args.transport}: "
        f"{result.messages_sent} messages, {result.messages_lost} lost, "
        f"{len(result.trace)} events"
    )
    all_converged = True
    for proc in names:
        stats = result.nodes[proc]
        tag = "source" if proc == config.source_proc else (
            "converged" if stats.converged else "UNBOUNDED"
        )
        if proc != config.source_proc and not stats.converged:
            all_converged = False
        print(f"  {proc}: bound={stats.bound}  events={stats.events}  [{tag}]")
    violations = result.soundness_violations()
    if violations:
        print(f"  UNSOUND: {len(violations)} sample(s) exclude the truth")
    if args.out:
        dump_rt_run(result, args.out)
        print(f"  archived -> {args.out}")
    if death is not None:
        return death
    if args.require_converged and (violations or not all_converged):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
