"""Run a whole federation: many tiers, one hierarchy, one or many processes.

Two runners share every piece but the process boundary:

* :func:`run_federation` - every tier in one asyncio process over one
  shared transport (loopback or UDP).  The cheap path for tests and
  experiments.
* :func:`run_federation_procs` - the core tier in *this* process, every
  downstream tier in its own OS process (``python -m
  repro.rt.strata.tier_main``), all over real UDP sockets.  Real time
  stays comparable because ``time.monotonic()`` is ``CLOCK_MONOTONIC``
  (one axis per boot): the parent ships its
  :class:`~repro.rt.clock.TimeBase` origin to every child.

The multi-process address handshake rides the children's stdio:

1. the parent registers *every* federation endpoint in its
   :class:`~repro.rt.strata.membership.PeerDirectory`, starts the core
   tier (resolving the core's port-0 binds), and spawns each child with
   one JSON boot line - origin, federation config, tier name, and the
   core's resolved addresses;
2. each child binds its own endpoints (port 0), prints
   ``STRATA-ADDR {..}``, and waits;
3. the parent folds every child's addresses into its directory and
   relays the full map back as one ``STRATA-PEERS`` line - the start
   barrier, and the step that lets siblings (and core delegation
   *replies*) route;
4. at the shared deadline every process winds down; each child prints
   ``STRATA-DOC {..}`` (its tier's serialize-v2 document plus stratum
   stats) and the parent merges everything into one
   :class:`FederationResult`.

Addresses learned mid-run route immediately: the directory's
``addresses`` dict is shared by identity with the UDP transport, which
reads it on every send.  Until the handshake completes, cross-process
datagrams are simply lost - the protocol already tolerates loss.

SIGINT follows the repro-rt clean-death contract: the parent forwards it
to the children, everyone winds down at the next period edge, and the
merged document carries ``"partial": true``.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ...core.errors import SimulationError
from ...core.events import ProcessorId
from ...core.intervals import ClockBound
from ...core.specs import SystemSpec, TransitSpec
from ...sim.clock import PiecewiseDriftingClock
from ...sim.runner import EstimateSample
from ...sim.serialize import (
    FORMAT_VERSION,
    samples_to_dicts,
    spec_from_dict,
    spec_to_dict,
    trace_from_dict,
    trace_to_dict,
)
from ...sim.trace import ExecutionTrace
from ..client import ClientStats
from ..clock import ClockSource, ModelClockSource, MonotonicClockSource, SkewedClockSource, TimeBase
from ..cluster import CrashSchedule, RtRunResult
from ..serve import ServeConfig, ServeStats
from .delegation import ElectionEvent, anchor_link_endpoint, deleg_endpoint
from .gradient import gradient_scorecard
from .membership import FederationSpec, PeerDirectory, TierSpec, build_transport
from .tier import STRATA_CHANNEL, TierConfig, TierResult, TierRunner

__all__ = [
    "FederationConfig",
    "FederationResult",
    "clock_from_plan",
    "tier_endpoints",
    "register_federation",
    "run_federation",
    "run_federation_procs",
    "run_federation_sync",
]

#: the importable source root, for PYTHONPATH of child processes
_SRC_ROOT = Path(__file__).resolve().parents[3]

#: stdout/stdin line tags of the child handshake
ADDR_TAG = "STRATA-ADDR"
PEERS_TAG = "STRATA-PEERS"
DOC_TAG = "STRATA-DOC"


# -- clock plans (JSON-able clock descriptions, buildable in any process) -------------


def clock_from_plan(plan: Optional[Dict]) -> ClockSource:
    """Build a :class:`ClockSource` from a JSON-able plan.

    Plans (``None`` and ``{"kind": "monotonic"}`` mean a perfect clock)::

        {"kind": "skewed", "rate": 1.0001, "offset": 0.0,
         "band": [0.999, 1.001]}          # band optional
        {"kind": "drifting", "seed": 7, "band_ppm": 200.0,
         "mean_segment": 1.0}
    """
    if plan is None:
        return MonotonicClockSource()
    kind = plan.get("kind")
    if kind == "monotonic":
        return MonotonicClockSource()
    if kind == "skewed":
        band = plan.get("band")
        return SkewedClockSource(
            float(plan.get("rate", 1.0)),
            float(plan.get("offset", 0.0)),
            advertised_band=tuple(band) if band is not None else None,
        )
    if kind == "drifting":
        band = float(plan.get("band_ppm", 200.0)) * 1e-6
        return ModelClockSource(
            PiecewiseDriftingClock(
                int(plan.get("seed", 0)),
                r_min=1.0 - band,
                r_max=1.0 + band,
                mean_segment=float(plan.get("mean_segment", 1.0)),
            )
        )
    raise SimulationError(f"unknown clock plan kind {kind!r}")


# -- configuration --------------------------------------------------------------------


@dataclass(frozen=True)
class FederationConfig:
    """Everything needed to run one federation, in JSON-able form.

    Clocks are *plans* (see :func:`clock_from_plan`) rather than live
    :class:`ClockSource` objects so the exact same configuration can be
    shipped to a child process and rebuilt there.
    """

    spec: FederationSpec
    duration: float = 3.0
    gossip_period: float = 0.25
    sample_period: float = 0.25
    transport: str = "loopback"  # in-process runs; the procs runner forces udp
    clock_plans: Mapping[ProcessorId, Dict] = field(default_factory=dict)
    crashes: Tuple[CrashSchedule, ...] = ()
    #: delegation-server staleness threshold (local s)
    stale_after: float = 1.0
    #: anchor-link knobs
    sync_period: float = 0.2
    probe_timeout: float = 0.2
    failover_threshold: float = 3.0
    max_age: float = 1.5
    gossip_jitter: float = 0.1
    loopback_delay: float = 0.0
    loopback_jitter: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.transport not in ("loopback", "udp"):
            raise SimulationError(f"unknown transport kind {self.transport!r}")
        if self.duration <= 0:
            raise SimulationError("duration must be positive")
        known = set(self.spec.all_processors)
        for proc in self.clock_plans:
            if proc not in known:
                raise SimulationError(f"clock plan for unknown processor {proc!r}")
        for crash in self.crashes:
            if crash.proc not in known:
                raise SimulationError(f"crash schedule names unknown {crash.proc!r}")

    def tier_config(self, tier: TierSpec, *, transport_kind: Optional[str] = None) -> TierConfig:
        """The per-tier slice of this federation configuration."""
        index = [t.name for t in self.spec.tiers].index(tier.name)
        clocks = {
            proc: clock_from_plan(self.clock_plans[proc])
            for proc in tier.processors
            if proc in self.clock_plans
        }
        return TierConfig(
            tier=tier,
            duration=self.duration,
            gossip_period=self.gossip_period,
            sample_period=self.sample_period,
            clocks=clocks,
            crashes=tuple(c for c in self.crashes if c.proc in tier.processors),
            # an unsynced anchor asks its borders back at their own cadence
            delegation=ServeConfig(
                stale_after=self.stale_after, unsynced_retry_after=self.sync_period
            ),
            sync_period=self.sync_period,
            probe_timeout=self.probe_timeout,
            failover_threshold=self.failover_threshold,
            max_age=self.max_age,
            gossip_jitter=self.gossip_jitter,
            seed=self.seed + 101 * index,
            transport_kind=transport_kind if transport_kind is not None else self.transport,
        )

    def to_dict(self) -> Dict:
        return {
            "spec": self.spec.to_dict(),
            "duration": self.duration,
            "gossip_period": self.gossip_period,
            "sample_period": self.sample_period,
            "transport": self.transport,
            "clock_plans": {proc: dict(plan) for proc, plan in self.clock_plans.items()},
            "crashes": [
                [c.proc, c.stop_at, c.restart_at] for c in self.crashes
            ],
            "stale_after": self.stale_after,
            "sync_period": self.sync_period,
            "probe_timeout": self.probe_timeout,
            "failover_threshold": self.failover_threshold,
            "max_age": self.max_age,
            "gossip_jitter": self.gossip_jitter,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "FederationConfig":
        return cls(
            spec=FederationSpec.from_dict(data["spec"]),
            duration=float(data["duration"]),
            gossip_period=float(data["gossip_period"]),
            sample_period=float(data["sample_period"]),
            transport=data.get("transport", "udp"),
            clock_plans=data.get("clock_plans", {}),
            crashes=tuple(
                CrashSchedule(proc=proc, stop_at=stop, restart_at=restart)
                for proc, stop, restart in data.get("crashes", [])
            ),
            stale_after=float(data.get("stale_after", 1.0)),
            sync_period=float(data.get("sync_period", 0.2)),
            probe_timeout=float(data.get("probe_timeout", 0.2)),
            failover_threshold=float(data.get("failover_threshold", 3.0)),
            max_age=float(data.get("max_age", 1.5)),
            gossip_jitter=float(data.get("gossip_jitter", 0.1)),
            seed=int(data.get("seed", 0)),
        )


def tier_endpoints(tier: TierSpec) -> Tuple[ProcessorId, ...]:
    """Every transport endpoint one tier binds locally."""
    names = list(tier.processors) + [deleg_endpoint(proc) for proc in tier.exports]
    if tier.stratum > 0:
        names.append(anchor_link_endpoint(tier.border_proc))
    return tuple(names)


def register_federation(directory: PeerDirectory, spec: FederationSpec) -> None:
    """Register every federation endpoint (all tiers) in one directory."""
    for tier in spec.tiers:
        for name in tier_endpoints(tier):
            directory.register(name, tier=tier.name)


# -- results --------------------------------------------------------------------------


@dataclass
class FederationResult:
    """A finished federation run: per-tier evidence plus the merged view."""

    spec: FederationSpec
    tiers: List[TierResult]
    aborted: bool = False

    def tier(self, name: str) -> TierResult:
        for result in self.tiers:
            if result.name == name:
                return result
        raise SimulationError(f"no tier result named {name!r}")

    @property
    def samples(self) -> List[EstimateSample]:
        merged = [s for result in self.tiers for s in result.run.samples]
        merged.sort(key=lambda s: (s.rt, s.proc, s.channel))
        return merged

    @property
    def elections(self) -> List[ElectionEvent]:
        events = [e for result in self.tiers for e in result.elections]
        events.sort(key=lambda e: e.rt)
        return events

    def soundness_violations(self, channel: Optional[str] = None) -> List[EstimateSample]:
        return [
            s
            for s in self.samples
            if not s.sound and (channel is None or s.channel == channel)
        ]

    @property
    def messages_sent(self) -> int:
        return sum(result.run.messages_sent for result in self.tiers)

    @property
    def messages_lost(self) -> int:
        return sum(result.run.messages_lost for result in self.tiers)

    def reconvergence_after(
        self, rt0: float, proc: ProcessorId, channel: Optional[str] = STRATA_CHANNEL
    ) -> Tuple[float, int]:
        """Per-processor re-convergence lag, on the federation channel.

        Delegates to the owning tier's
        :meth:`~repro.rt.cluster.RtRunResult.reconvergence_after`, so the
        ``(inf, 0)`` zero-sample sentinel applies federation-wide.
        """
        owner = self.spec.tier_of(proc)
        return self.tier(owner.name).run.reconvergence_after(rt0, proc, channel)

    def union_spec(self) -> SystemSpec:
        """One advertised spec spanning the whole federation.

        Processors keep their per-tier drift advertisement; links are the
        union graph (intra-tier gossip plus border-anchor delegation
        edges); the source is the core tier's internal source.
        """
        drift = {}
        for result in self.tiers:
            drift.update(result.run.spec.drift)
        return SystemSpec.build(
            source=self.spec.core.border_proc,
            processors=self.spec.all_processors,
            links=self.spec.union_links(),
            drift=drift,
            default_transit=TransitSpec(),
        )

    def merged_trace(self) -> ExecutionTrace:
        """All tiers' events on one chronological real-time axis.

        Well-defined because every process measured real time off one
        shared :class:`TimeBase` origin.  Event ids never collide: they
        are processor-scoped and tiers are disjoint.
        """
        records = [
            (entry.event, entry.rt)
            for result in self.tiers
            for entry in result.run.trace
        ]
        records.sort(key=lambda pair: (pair[1], pair[0].is_receive, pair[0].proc, pair[0].seq))
        trace = ExecutionTrace()
        for event, rt in records:
            trace.record(event, rt)
        for result in self.tiers:
            for eid in result.run.trace.lost_sends:
                trace.record_lost(eid)
        return trace

    def gradient(self) -> Dict:
        """The gradient scorecard over the merged ``strata`` samples."""
        return gradient_scorecard(self.spec, self.samples)

    def to_document(self) -> Dict:
        """One serialize-v2 document for the whole federation.

        Loads through :func:`repro.sim.serialize.load_run` like any
        cluster run; the extra ``strata`` section (tier rows, elections,
        gradient scorecard) passes through untouched.
        """
        document = {
            "version": FORMAT_VERSION,
            "spec": spec_to_dict(self.union_spec()),
            "trace": trace_to_dict(self.merged_trace()),
            "samples": samples_to_dicts(self.samples),
            "messages_sent": self.messages_sent,
            "messages_lost": self.messages_lost,
            "links": [row for result in self.tiers for row in result.run.link_rows],
            "strata": {
                "federation": self.spec.to_dict(),
                "tiers": [result.to_dict() for result in self.tiers],
                "elections": [event.to_dict() for event in self.elections],
                "gradient": self.gradient(),
            },
        }
        if self.aborted:
            document["partial"] = True
        return document


def dump_federation(result: FederationResult, path: str) -> None:
    """Archive a federation run as one serialize-v2 JSON document."""
    with open(path, "w") as handle:
        json.dump(result.to_document(), handle)


# -- in-process runner ----------------------------------------------------------------


async def run_federation(
    config: FederationConfig, *, abort: Optional[asyncio.Event] = None
) -> FederationResult:
    """Run every tier in this process over one shared transport."""
    time_base = TimeBase()
    directory = PeerDirectory()
    register_federation(directory, config.spec)
    transport = build_transport(
        config.transport,
        directory,
        time_base=time_base,
        loopback_delay=config.loopback_delay,
        loopback_jitter=config.loopback_jitter,
        seed=config.seed,
    )
    runners = [
        TierRunner(
            config.tier_config(tier),
            transport=transport,
            time_base=time_base,
            directory=directory,
        )
        for tier in config.spec.tiers
    ]
    aborted = False
    try:
        await transport.start()
        for runner in runners:
            await runner.start()
        flags = await asyncio.gather(
            *(runner.run_sampling(abort) for runner in runners)
        )
        aborted = any(flags)
    finally:
        for runner in runners:
            await runner.finish()
        await transport.stop()
    return FederationResult(
        spec=config.spec,
        tiers=[runner.result(aborted=aborted) for runner in runners],
        aborted=aborted,
    )


# -- multi-process runner -------------------------------------------------------------


def _unnum(value) -> float:
    if value == "inf":
        return float("inf")
    if value == "-inf":
        return float("-inf")
    return float(value)


def _samples_from_dicts(rows: Sequence[Dict]) -> List[EstimateSample]:
    return [
        EstimateSample(
            rt=float(row["rt"]),
            proc=row["proc"],
            channel=row.get("channel", "rt"),
            bound=ClockBound(_unnum(row["lower"]), _unnum(row["upper"])),
            truth=float(row["truth"]),
        )
        for row in rows
    ]


def tier_result_from_payload(payload: Dict) -> TierResult:
    """Rebuild a child tier's :class:`TierResult` from its STRATA-DOC."""
    doc = payload["document"]
    info = payload["tier"]
    run = RtRunResult(
        spec=spec_from_dict(doc["spec"]),
        trace=trace_from_dict(doc["trace"]),
        samples=_samples_from_dicts(doc["samples"]),
        nodes={},  # NodeStats stay in the child; counters live in `info`
        messages_sent=int(doc.get("messages_sent", 0)),
        messages_lost=int(doc.get("messages_lost", 0)),
        link_rows=list(doc.get("links", [])),
        aborted=bool(doc.get("partial", False)),
    )
    anchor = info.get("anchor")
    return TierResult(
        name=info["name"],
        stratum=int(info["stratum"]),
        border=info["border"],
        run=run,
        elections=[ElectionEvent(**event) for event in info.get("elections", [])],
        anchor_stats=ClientStats.from_dict(anchor) if anchor else None,
        delegation_stats={
            proc: ServeStats.from_dict(stats)
            for proc, stats in info.get("delegation", {}).items()
        },
        final_bounds={
            proc: ClockBound(_unnum(row[0]), _unnum(row[1]))
            for proc, row in info.get("final_bounds", {}).items()
        },
    )


async def _read_tagged(
    stream: asyncio.StreamReader, tag: str, *, timeout: float, who: str
) -> Dict:
    """Read lines until one starts with ``tag``; parse its JSON payload."""
    deadline = asyncio.get_running_loop().time() + timeout
    while True:
        remaining = deadline - asyncio.get_running_loop().time()
        if remaining <= 0:
            raise SimulationError(f"timed out waiting for {tag} from {who}")
        try:
            line = await asyncio.wait_for(stream.readline(), timeout=remaining)
        except asyncio.TimeoutError:
            raise SimulationError(f"timed out waiting for {tag} from {who}") from None
        if not line:
            raise SimulationError(f"{who} exited before sending {tag}")
        text = line.decode("utf-8", "replace").strip()
        if text.startswith(tag + " "):
            try:
                return json.loads(text[len(tag) + 1 :])
            except json.JSONDecodeError as exc:
                raise SimulationError(f"bad {tag} payload from {who}: {exc}") from None
        # anything else is the child thinking out loud; not ours to parse


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    extra = str(_SRC_ROOT)
    current = env.get("PYTHONPATH")
    env["PYTHONPATH"] = extra if not current else extra + os.pathsep + current
    return env


async def run_federation_procs(
    config: FederationConfig,
    *,
    abort: Optional[asyncio.Event] = None,
    python: str = sys.executable,
) -> FederationResult:
    """Core tier here, every downstream tier in its own OS process, over UDP."""
    spec = config.spec
    if len(spec.tiers) < 2:
        raise SimulationError("a multi-process federation needs a downstream tier")
    time_base = TimeBase()
    directory = PeerDirectory()
    register_federation(directory, spec)
    transport = build_transport("udp", directory, time_base=time_base)
    core_runner = TierRunner(
        config.tier_config(spec.core, transport_kind="udp"),
        transport=transport,
        time_base=time_base,
        directory=directory,
    )
    children: List[Tuple[TierSpec, asyncio.subprocess.Process]] = []
    payloads: List[Dict] = []
    core_aborted = False
    try:
        await transport.start()
        await core_runner.start()
        core_addresses = {
            name: list(directory.addresses[name])
            for name in tier_endpoints(spec.core)
        }
        for tier in spec.tiers[1:]:
            boot = {
                "origin": time_base.origin,
                "federation": config.to_dict(),
                "tier": tier.name,
                "addresses": core_addresses,
            }
            child = await asyncio.create_subprocess_exec(
                python,
                "-m",
                "repro.rt.strata.tier_main",
                stdin=asyncio.subprocess.PIPE,
                stdout=asyncio.subprocess.PIPE,
                env=_child_env(),
            )
            child.stdin.write((json.dumps(boot) + "\n").encode())
            await child.stdin.drain()
            children.append((tier, child))
        # fold every child's resolved addresses into the shared book ...
        for tier, child in children:
            learned = await _read_tagged(
                child.stdout, ADDR_TAG, timeout=20.0, who=f"tier {tier.name!r}"
            )
            for name, (host, port) in learned.items():
                directory.update_address(name, host, int(port))
        # ... and relay the complete map back (the start barrier)
        full_map = {name: list(addr) for name, addr in directory.addresses.items()}
        peers_line = (PEERS_TAG + " " + json.dumps(full_map) + "\n").encode()
        for _tier, child in children:
            child.stdin.write(peers_line)
            await child.stdin.drain()
        core_aborted = await core_runner.run_sampling(abort)
        if core_aborted:
            # clean-death: forward the interrupt so children wind down too
            for _tier, child in children:
                if child.returncode is None:
                    child.send_signal(signal.SIGINT)
        for tier, child in children:
            payload = await _read_tagged(
                child.stdout,
                DOC_TAG,
                timeout=config.duration + 30.0,
                who=f"tier {tier.name!r}",
            )
            payloads.append(payload)
            await child.wait()
    finally:
        for _tier, child in children:
            if child.returncode is None:
                child.kill()
        await core_runner.finish()
        await transport.stop()
    aborted = core_aborted or any(p.get("aborted") for p in payloads)
    tiers = [core_runner.result(aborted=aborted)] + [
        tier_result_from_payload(payload) for payload in payloads
    ]
    return FederationResult(spec=spec, tiers=tiers, aborted=aborted)


def run_federation_sync(
    config: FederationConfig, *, processes: bool = False
) -> FederationResult:
    """Blocking wrapper: run the federation on a fresh event loop."""
    if processes:
        return asyncio.run(run_federation_procs(config))
    return asyncio.run(run_federation(config))
