"""``repro-strata``: launch a stratum federation from the command line.

Stands up one stratum-0 core cluster plus ``--tiers`` downstream tiers,
each anchored on the core's export nodes, and runs the whole federation
for ``--duration`` wall seconds - every tier in this process (loopback
or UDP), or with ``--procs`` each downstream tier in its own OS process
over real UDP sockets.  Prints per-tier convergence plus the gradient
scorecard and optionally archives the merged run as a serialize-v2
document (``--out``) with the ``strata`` section (tier rows, elections,
gradient).

Naming: core nodes are ``c0..c{N-1}`` (``c0`` the source); downstream
tier ``k`` is ``t{k}n0..t{k}n{M-1}`` with border ``t{k}n0``.  The core
exports are every core node but the source; they double as each tier's
ordered anchor-candidate list, so ``--crash-anchor T`` (fail-stop the
primary anchor ``c1`` at ``T`` elapsed seconds) exercises re-election.

Clean-death contract, shared with ``repro-rt``/``repro-serve``: SIGINT
or ``--timeout`` expiry winds the run down at the next period edge,
still archives partial evidence (``"partial": true``), and exits 130/124
- never a traceback, never a hang.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from ..cli import (
    add_cluster_flags,
    add_death_flags,
    bad_timeout,
    parse_crash,
    run_to_death,
    shape_links,
)
from ..cluster import CrashSchedule
from .federation import (
    FederationConfig,
    dump_federation,
    run_federation,
    run_federation_procs,
)
from .membership import FederationSpec, TierSpec

__all__ = ["main", "build_parser", "build_federation_spec", "build_clock_plans"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-strata",
        description="Run a federated stratum hierarchy of live clusters.",
    )
    core = parser.add_argument_group("core tier (stratum 0)")
    core.add_argument(
        "--core-nodes", type=int, default=3, help="core cluster size (default 3)"
    )
    core.add_argument(
        "--core-shape",
        choices=("line", "ring", "star", "full", "tree"),
        default="full",
        help="core topology over c0..c{N-1}; c0 is the source (default full)",
    )
    down = parser.add_argument_group("downstream tiers (stratum 1)")
    down.add_argument(
        "--tiers", type=int, default=1, help="number of downstream tiers (default 1)"
    )
    down.add_argument(
        "--tier-nodes", type=int, default=2, help="nodes per downstream tier (default 2)"
    )
    down.add_argument(
        "--tier-shape",
        choices=("line", "ring", "star", "full", "tree"),
        default="line",
        help="downstream topology; t{k}n0 is the border (default line)",
    )
    add_cluster_flags(
        parser,
        period=0.25,
        transport_help="in-process transport kind (--procs always uses udp)",
        anchor="border",
    )
    parser.add_argument(
        "--procs",
        action="store_true",
        help="run each downstream tier in its own OS process over UDP",
    )
    parser.add_argument(
        "--sync-period",
        type=float,
        default=0.2,
        help="border-to-anchor delegation cadence (default 0.2)",
    )
    parser.add_argument(
        "--max-age",
        type=float,
        default=1.5,
        help="adopted bounds older than this stop being served (default 1.5)",
    )
    parser.add_argument(
        "--crash-anchor",
        type=float,
        metavar="T",
        help="fail-stop the primary anchor (c1) at T elapsed seconds",
    )
    add_death_flags(parser)
    parser.add_argument(
        "--require-sound",
        action="store_true",
        help="exit non-zero on any soundness violation or a downstream tier "
        "that never produced a bounded external estimate",
    )
    parser.add_argument(
        "--require-election",
        action="store_true",
        help="exit non-zero unless at least one anchor re-election was "
        "recorded (pair with --crash-anchor)",
    )
    return parser


def build_federation_spec(args) -> FederationSpec:
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


def build_clock_plans(args, spec: FederationSpec) -> Dict[str, Dict]:
    """Skew/drift plans for every node that is not a tier's time anchor."""
    plans: Dict[str, Dict] = {}
    borders = {tier.border_proc for tier in spec.tiers}
    index = 0
    for proc in spec.all_processors:
        index += 1
        if proc in borders:
            continue  # tier sources (incl. c0) define their tier's local axis
        if args.drifting:
            plans[proc] = {
                "kind": "drifting",
                "seed": args.seed + index,
                "band_ppm": args.drift_ppm,
            }
        elif args.skew_ppm:
            plans[proc] = {
                "kind": "skewed",
                "rate": 1.0 + index * args.skew_ppm * 1e-6,
            }
    return plans


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.core_nodes < 3:
        print("error: --core-nodes must be at least 3 (source + 2 exports)", file=sys.stderr)
        return 2
    if args.tier_nodes < 2 or args.tiers < 1:
        print("error: need at least one downstream tier of two nodes", file=sys.stderr)
        return 2
    if bad_timeout(args):
        return 2
    try:
        spec = build_federation_spec(args)
        crashes = [parse_crash(text) for text in args.crash]
        if args.crash_anchor is not None:
            crashes.append(CrashSchedule(proc="c1", stop_at=args.crash_anchor))
        config = FederationConfig(
            spec=spec,
            duration=args.duration,
            gossip_period=args.period,
            sample_period=args.sample_period,
            transport="udp" if args.procs else args.transport,
            clock_plans=build_clock_plans(args, spec),
            crashes=tuple(crashes),
            sync_period=args.sync_period,
            max_age=args.max_age,
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    runner = run_federation_procs if args.procs else run_federation
    result, death = run_to_death(
        lambda abort: runner(config, abort=abort), args.timeout
    )
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
    gradient = result.gradient()
    for hops, row in gradient["by_hops"].items():
        print(
            f"  gradient @{hops} hop(s): mean skew {row['mean_skew']:.6f}s "
            f"max {row['max_skew']:.6f}s over {row['pairs']} pair(s)"
        )
    internal_violations = len(result.soundness_violations())
    if internal_violations:
        print(f"  UNSOUND: {internal_violations} sample(s) exclude the truth")
        healthy = False
    if args.out:
        dump_federation(result, args.out)
        print(f"  archived -> {args.out}")
    failed = args.require_sound and not healthy
    if args.require_election and not result.elections:
        print("  NO-ELECTION: expected an anchor re-election", file=sys.stderr)
        failed = True
    if death is not None:
        return death
    if failed:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
