"""The stratum hierarchy: wire frames, membership, delegation, federation.

Load-bearing assertions:

* the ``dreq``/``deleg`` frame pair round-trips, and the paper's
  ``K2 <= 2`` indirection cap is part of the wire contract - frames
  claiming deeper indirection are rejected at encode *and* decode;
* tier/federation specs validate the inter-tier link policy (only the
  core lacks anchors, only borders re-export, anchors must be upstream
  exports);
* ``compose_delegated`` advances adopted bounds through the border's
  advertised drift with the correct sign handling and never inverts;
* a ``DelegationServer`` stamps the ``K2`` hop count and an
  ``AnchorLink`` expires and re-elects (everything the two share with
  the serving tier is asserted over both frame pairs in
  ``test_exchange.py``);
* an in-process loopback federation converges to sound bounded external
  estimates, survives the primary anchor's crash through re-election,
  and archives a document that ``load_run`` accepts with the gradient
  scorecard inside;
* empty-sample edges return documented sentinels instead of raising
  (``reconvergence_after`` -> ``(inf, 0)``, ``percentile`` -> None).

All async paths are driven through ``run_federation_sync`` inside plain
pytest functions; durations are short with periods scaled to match.
"""

import json
import math

import pytest

from repro.core.errors import ProtocolError, SimulationError
from repro.core.intervals import ClockBound
from repro.core.specs import DriftSpec
from repro.rt.clock import MonotonicClockSource, TimeBase
from repro.rt.cluster import ClusterConfig, CrashSchedule, build_spec
from repro.rt.loadgen import percentile
from repro.rt.node import Node, NodeConfig
from repro.rt.strata import (
    AnchorLink,
    DelegatedBound,
    DelegationServer,
    FederationConfig,
    FederationSpec,
    K2_MAX_HOPS,
    PeerDirectory,
    TierSpec,
    anchor_link_config,
    compose_delegated,
    deleg_endpoint,
    deleg_owner,
    dump_federation,
    gradient_scorecard,
    run_federation_sync,
)
from repro.rt.transport import LoopbackTransport
from repro.rt.wire import (
    MAX_DELEGATION_HOPS,
    decode_frame,
    deleg_frame,
    dreq_frame,
    encode_frame,
)
from repro.sim.faults import RetransmitPolicy
from repro.sim.runner import EstimateSample
from repro.sim.serialize import load_run

FAST_RETRANSMIT = RetransmitPolicy(timeout=0.3, backoff=1.5, max_retries=3)


def _core() -> TierSpec:
    return TierSpec(
        name="core",
        stratum=0,
        processors=("c0", "c1", "c2"),
        links=(("c0", "c1"), ("c1", "c2"), ("c0", "c2")),
        exports=("c1", "c2"),
    )


def _downstream(k: int = 1, nodes: int = 2) -> TierSpec:
    names = tuple(f"t{k}n{i}" for i in range(nodes))
    return TierSpec(
        name=f"tier{k}",
        stratum=1,
        processors=names,
        links=tuple((names[i], names[i + 1]) for i in range(nodes - 1)),
        border=names[0],
        anchors=("c1", "c2"),
    )


def _federation_spec(tiers: int = 1, nodes: int = 2) -> FederationSpec:
    return FederationSpec(
        tiers=(_core(),) + tuple(_downstream(k, nodes) for k in range(1, tiers + 1))
    )


def _federation_config(**overrides) -> FederationConfig:
    defaults = dict(
        spec=_federation_spec(),
        duration=2.0,
        gossip_period=0.05,
        sample_period=0.15,
        transport="loopback",
        clock_plans={
            "c1": {"kind": "skewed", "rate": 1.0 + 120e-6},
            "c2": {"kind": "skewed", "rate": 1.0 - 90e-6, "offset": 0.1},
            "t1n1": {"kind": "skewed", "rate": 1.0 + 200e-6},
        },
        sync_period=0.1,
        probe_timeout=0.2,
        seed=42,
    )
    defaults.update(overrides)
    return FederationConfig(**defaults)


class TestStrataWire:
    def test_dreq_round_trip(self):
        frame = dreq_frame("t1n0!anchor", "c1!deleg", 7)
        decoded = decode_frame(encode_frame(frame))
        assert decoded.error is None
        assert decoded.frame.type == "dreq"
        assert decoded.frame.src == "t1n0!anchor"
        assert decoded.frame.dst == "c1!deleg"
        assert decoded.frame.nonce == 7

    def test_deleg_round_trip(self):
        frame = deleg_frame(
            "c1!deleg",
            "t1n0!anchor",
            3,
            ClockBound(10.0, 10.25),
            hops=1,
            stratum=0,
            degraded=True,
            age=0.4,
        )
        decoded = decode_frame(encode_frame(frame))
        assert decoded.error is None
        out = decoded.frame
        assert out.type == "deleg"
        assert out.bound == ClockBound(10.0, 10.25)
        assert out.hops == 1
        assert out.stratum == 0
        assert out.degraded is True
        assert out.age == pytest.approx(0.4)

    def test_encode_enforces_k2_cap(self):
        bound = ClockBound(1.0, 2.0)
        for hops in (0, MAX_DELEGATION_HOPS + 1, True):
            with pytest.raises(ProtocolError):
                deleg_frame("a", "b", 0, bound, hops=hops, stratum=0)
        with pytest.raises(ProtocolError):
            deleg_frame("a", "b", 0, bound, hops=1, stratum=-1)
        with pytest.raises(ProtocolError):
            deleg_frame("a", "b", 0, ClockBound.unbounded(), hops=1, stratum=0)

    def test_decode_rejects_excess_hops(self):
        # a remote claiming 3 hops of indirection violates the K2 bound:
        # tamper with a valid frame's body rather than trusting encode
        good = encode_frame(
            deleg_frame("c1!deleg", "t1n0!anchor", 0, ClockBound(1.0, 2.0), hops=2, stratum=1)
        )
        import struct

        from repro.rt.wire import MAGIC, WIRE_VERSION

        header_size = struct.calcsize(">2sBI")
        body = json.loads(good[header_size:])
        body["hops"] = MAX_DELEGATION_HOPS + 1
        raw = json.dumps(body, separators=(",", ":")).encode()
        tampered = struct.pack(">2sBI", MAGIC, WIRE_VERSION, len(raw)) + raw
        decoded = decode_frame(tampered)
        assert decoded.error is not None
        assert decoded.error.code == "bad-frame"
        assert decoded.error.src == "c1!deleg"  # attributable to the sender

    def test_garbage_never_raises(self):
        for data in (b"", b"\x00" * 3, b"not a frame", b"RT\x07" + b"\xff" * 10):
            assert decode_frame(data).error is not None

    def test_deleg_endpoint_naming(self):
        assert deleg_owner(deleg_endpoint("c1")) == "c1"
        assert deleg_owner("c1") is None


class TestMembership:
    def test_k2_cap_is_two(self):
        assert K2_MAX_HOPS == MAX_DELEGATION_HOPS == 2

    def test_downstream_tier_needs_anchors(self):
        with pytest.raises(SimulationError):
            TierSpec(
                name="t",
                stratum=1,
                processors=("a", "b"),
                links=(("a", "b"),),
                border="a",
            )

    def test_core_has_no_anchors(self):
        with pytest.raises(SimulationError):
            TierSpec(
                name="core",
                stratum=0,
                processors=("a", "b"),
                links=(("a", "b"),),
                anchors=("x",),
            )

    def test_only_border_re_exports(self):
        with pytest.raises(SimulationError):
            TierSpec(
                name="t",
                stratum=1,
                processors=("a", "b"),
                links=(("a", "b"),),
                border="a",
                anchors=("c1",),
                exports=("b",),
            )

    def test_federation_needs_exactly_one_core(self):
        with pytest.raises(SimulationError):
            FederationSpec(tiers=(_downstream(),))
        core2 = TierSpec(
            name="core2",
            stratum=0,
            processors=("d0", "d1"),
            links=(("d0", "d1"),),
        )
        with pytest.raises(SimulationError):
            FederationSpec(tiers=(_core(), core2))

    def test_anchors_must_be_upstream_exports(self):
        bad = TierSpec(
            name="tier1",
            stratum=1,
            processors=("t1n0", "t1n1"),
            links=(("t1n0", "t1n1"),),
            border="t1n0",
            anchors=("c0",),  # c0 is a core member but not an export
        )
        with pytest.raises(SimulationError):
            FederationSpec(tiers=(_core(), bad))

    def test_hop_distance_crosses_tiers(self):
        spec = _federation_spec()
        # t1n1 - t1n0 - c1 - c0: intra-tier links plus the border-anchor edge
        assert spec.hop_distance("t1n1", "t1n0") == 1
        assert spec.hop_distance("t1n0", "c1") == 1
        assert spec.hop_distance("t1n1", "c0") == 3
        assert spec.hop_distance("c0", "c0") == 0

    def test_spec_round_trips_through_dict(self):
        spec = _federation_spec(tiers=2)
        assert FederationSpec.from_dict(spec.to_dict()) == spec

    def test_peer_directory(self):
        directory = PeerDirectory()
        directory.register("c0", tier="core")
        directory.register("c0!deleg", tier="core")
        directory.register("t1n0", tier="tier1")
        with pytest.raises(SimulationError):
            directory.register("c0", tier="core")  # duplicates are bugs
        assert directory.tier_of("c0") == "core"
        assert directory.members("core") == ("c0", "c0!deleg")
        directory.update_address("t1n0", "127.0.0.1", 4242)
        assert directory.address_of("t1n0") == ("127.0.0.1", 4242)
        assert "t1n0" in directory and "ghost" not in directory


class TestComposeDelegated:
    DRIFT = DriftSpec(alpha=1.0 - 200e-6, beta=1.0 + 200e-6)

    def _delegated(self, lower, upper, anchor_lt):
        return DelegatedBound(
            bound=ClockBound(lower, upper),
            anchor_lt=anchor_lt,
            anchor_rt=anchor_lt,
            hops=1,
            stratum=0,
            anchor="c1",
            degraded=False,
        )

    def test_forward_advance_uses_drift_envelope(self):
        delegated = self._delegated(10.0, 10.1, anchor_lt=5.0)
        out = compose_delegated(ClockBound(6.0, 6.2), delegated, self.DRIFT)
        alpha, beta = self.DRIFT.alpha, self.DRIFT.beta
        assert out.lower == pytest.approx(10.0 + alpha * 1.0)
        assert out.upper == pytest.approx(10.1 + beta * 1.2)
        assert out.lower <= out.upper

    def test_backward_delta_flips_rates(self):
        # an internal lower endpoint may precede the anchor instant; the
        # pessimistic advance then uses the *fast* rate going backwards
        delegated = self._delegated(10.0, 10.1, anchor_lt=5.0)
        out = compose_delegated(ClockBound(4.5, 4.8), delegated, self.DRIFT)
        alpha, beta = self.DRIFT.alpha, self.DRIFT.beta
        assert out.lower == pytest.approx(10.0 + beta * (-0.5))
        assert out.upper == pytest.approx(10.1 + alpha * (-0.2))
        assert out.lower <= out.upper

    def test_never_inverts(self):
        delegated = self._delegated(100.0, 100.05, anchor_lt=50.0)
        for low in (40.0, 49.99, 50.0, 61.5):
            for width in (0.0, 0.01, 5.0):
                out = compose_delegated(
                    ClockBound(low, low + width), delegated, self.DRIFT
                )
                assert out.lower <= out.upper

    def test_sound_against_simulated_truth(self):
        # simulate: source runs at rt; border clock runs at a fixed rate
        # inside the advertised envelope.  Any (delegated, internal) pair
        # built from that ground truth must compose to a containing bound.
        rate = 1.0 + 150e-6  # within DriftSpec(rho=200e-6)
        for anchor_rt in (3.0, 7.5):
            anchor_lt = anchor_rt * rate
            delegated = self._delegated(anchor_rt - 0.02, anchor_rt + 0.03, anchor_lt)
            for sample_rt in (anchor_rt - 1.0, anchor_rt, anchor_rt + 2.0):
                lt = sample_rt * rate
                internal = ClockBound(lt - 0.01, lt + 0.01)
                out = compose_delegated(internal, delegated, self.DRIFT)
                assert out.contains(sample_rt, tolerance=1e-9)

    def test_unbounded_inputs_stay_honest(self):
        delegated = self._delegated(10.0, 10.1, anchor_lt=5.0)
        assert not compose_delegated(ClockBound.unbounded(), delegated, self.DRIFT).is_bounded
        assert not compose_delegated(ClockBound(1.0, 1.1), None, self.DRIFT).is_bounded


class TestDelegationServerUnit:
    """The synchronous receive core, no event loop needed."""

    def _server(self, **kwargs):
        config = ClusterConfig(
            processors=("n0", "n1", "n2"),
            links=(("n0", "n1"), ("n1", "n2")),
            retransmit=FAST_RETRANSMIT,
        )
        node = Node(
            NodeConfig(proc="n1", spec=build_spec(config), retransmit=FAST_RETRANSMIT),
            LoopbackTransport(),  # not started: sends are no-ops
            clock=MonotonicClockSource(),
            time_base=TimeBase(),
        )
        server = DelegationServer(node, **{"stratum": 0, **kwargs})
        # unit tests drive the sync core directly, without start()
        node._running = True
        server._running = True
        return server

    def _dreq(self, server, nonce=0):
        return encode_frame(dreq_frame("t1n0!anchor", server.endpoint, nonce))

    def test_downstream_server_requires_bound_source(self):
        with pytest.raises(SimulationError):
            self._server(stratum=1)

    def test_bound_source_serves_at_k2_hops(self):
        server = self._server(
            stratum=1, bound_source=lambda: (ClockBound(5.0, 5.2), False, 0.05)
        )
        decoded = decode_frame(server.handle_probe_bytes(self._dreq(server)))
        assert decoded.error is None
        frame = decoded.frame
        assert frame.type == "deleg"
        assert frame.hops == MAX_DELEGATION_HOPS  # a re-export is 2 hops
        assert frame.stratum == 1
        assert frame.bound == ClockBound(5.0, 5.2)
        assert server.stats.replies == 1

    def test_stale_bound_source_sheds(self):
        server = self._server(stratum=1, bound_source=lambda: None)
        decoded = decode_frame(server.handle_probe_bytes(self._dreq(server)))
        assert decoded.frame.type == "shed"
        assert decoded.frame.reason == "unsynced"


class TestAnchorLinkUnit:
    def _link(self, anchors=("c1", "c2")):
        return AnchorLink(
            anchor_link_config("t1n0", anchors),
            LoopbackTransport(),
            TimeBase(),
            max_age=2.0,
            tier="tier1",
        )

    def test_config_validation(self):
        with pytest.raises(SimulationError):
            anchor_link_config("b", ())
        with pytest.raises(SimulationError):
            anchor_link_config("b", ("b", "c"))
        with pytest.raises(SimulationError):
            anchor_link_config("b", ("c", "c"))
        with pytest.raises(SimulationError):
            AnchorLink(
                anchor_link_config("b", ("c",)), LoopbackTransport(), TimeBase(), max_age=0.0
            )

    def test_link_is_a_fixed_cadence_client_of_delegation_endpoints(self):
        config = anchor_link_config("t1n0", ("c1", "c2"), sync_period=0.15)
        assert config.name == "t1n0!anchor"
        assert config.servers == ("c1!deleg", "c2!deleg")
        assert config.sync_interval(0.0) == config.sync_interval(1e9) == 0.15

    def test_election_rotates_succession(self):
        link = self._link()
        assert link.anchor == "c1"
        link._failover()
        assert link.anchor == "c2"
        link._failover()
        assert link.anchor == "c1"  # wraps around the candidate list
        assert link.stats.failovers == 2
        assert [(e.previous, e.new) for e in link.elections] == [
            ("c1", "c2"),
            ("c2", "c1"),
        ]
        assert all(e.tier == "tier1" and e.border == "t1n0" for e in link.elections)

    def test_single_candidate_never_elects(self):
        link = self._link(anchors=("c1",))
        for _ in range(20):
            link._on_timeout()
        assert link.elections == []
        assert link.stats.timeouts == 20

    def test_current_expires_after_max_age(self):
        link = self._link()
        frame = deleg_frame(
            link.server, link.name, 0, ClockBound(1.0, 1.1), hops=1, stratum=0
        )
        link._adopt(frame, link._now()[1])
        assert link.current().anchor == "c1"
        anchor_lt, sample, _frame = link._current
        link._current = (anchor_lt - link.max_age - 1.0, sample, frame)
        assert link.current() is None
        assert link.composed_now() is None
        assert link.stats.stale_refusals == 2


class TestGradientScorecard:
    def _samples(self, offsets, rts=(0.1, 0.3, 0.5, 0.7)):
        return [
            EstimateSample(
                rt=rt,
                proc=proc,
                channel="strata",
                bound=ClockBound(rt + off, rt + off),
                truth=rt,
            )
            for proc, off in offsets.items()
            for rt in rts
        ]

    def test_skew_buckets_by_hop_distance(self):
        spec = _federation_spec()
        samples = self._samples({"c0": 0.0, "c1": 0.004, "t1n1": 0.01})
        card = gradient_scorecard(spec, samples)
        rows = {(row["a"], row["b"]): row for row in card["pairs"]}
        near = rows[("c0", "c1")]
        far = rows[("c0", "t1n1")]
        assert near["hops"] == 1 and far["hops"] == 3
        assert near["mean_skew"] == pytest.approx(0.004)
        assert far["mean_skew"] == pytest.approx(0.01)
        assert "1" in card["by_hops"] and "3" in card["by_hops"]

    def test_unmatched_pairs_excluded_from_aggregates(self):
        spec = _federation_spec()
        # t1n0 never produces a bounded sample: its pairs carry samples=0
        samples = self._samples({"c0": 0.0, "c1": 0.002})
        card = gradient_scorecard(spec, samples)
        rows = {(row["a"], row["b"]): row for row in card["pairs"]}
        assert rows[("c0", "t1n0")]["samples"] == 0
        buckets = card["by_hops"]
        assert sum(bucket["pairs"] for bucket in buckets.values()) == 1

    def test_matching_respects_max_gap(self):
        spec = _federation_spec()
        samples = self._samples({"c0": 0.0}, rts=(0.1,)) + self._samples(
            {"c1": 0.005}, rts=(5.0,)
        )
        card = gradient_scorecard(spec, samples, max_gap=0.5)
        rows = {(row["a"], row["b"]): row for row in card["pairs"]}
        assert rows[("c0", "c1")]["samples"] == 0


class TestLoopbackFederation:
    def test_converges_sound_with_delegated_bounds(self):
        result = run_federation_sync(_federation_config())
        assert not result.aborted
        assert result.soundness_violations() == []
        tier1 = result.tier("tier1")
        external = [s for s in tier1.run.samples if s.channel == "strata"]
        assert sum(1 for s in external if s.bound.is_bounded) > 0
        assert tier1.anchor_stats.adopted > 0
        core = result.tier("core")
        assert sum(s.replies for s in core.delegation_stats.values()) > 0
        # the K2 discipline held end to end: only 1- or 2-hop bounds exist
        assert MAX_DELEGATION_HOPS == 2

    def test_anchor_crash_triggers_reelection_and_reconvergence(self):
        crash_at = 0.8
        result = run_federation_sync(
            _federation_config(
                duration=2.5,
                crashes=(CrashSchedule(proc="c1", stop_at=crash_at),),
                sync_period=0.1,
                probe_timeout=0.1,
                max_age=0.8,
                seed=7,
            )
        )
        assert result.soundness_violations() == []
        assert len(result.elections) >= 1
        assert all(event.previous == "c1" for event in result.elections)
        for proc in result.spec.tier("tier1").processors:
            lag, examined = result.reconvergence_after(crash_at, proc)
            assert math.isfinite(lag) and examined > 0

    def test_document_archives_and_reloads(self, tmp_path):
        result = run_federation_sync(_federation_config(duration=1.5))
        path = tmp_path / "federation.json"
        dump_federation(result, str(path))
        spec, trace, samples = load_run(str(path))
        assert set(spec.processors) == set(result.spec.all_processors)
        assert len(trace) == len(result.merged_trace())
        assert len(samples) == len(result.samples)
        document = json.loads(path.read_text())
        strata = document["strata"]
        assert {row["name"] for row in strata["tiers"]} == {"core", "tier1"}
        assert "by_hops" in strata["gradient"]
        assert document.get("partial") is None  # clean run: no partial flag


class TestEmptySampleSentinels:
    def test_reconvergence_after_without_evidence(self):
        result = run_federation_sync(_federation_config(duration=1.0))
        # a cutoff past the run's end leaves zero tail samples: the
        # documented sentinel is (inf, 0), never a raise
        lag, examined = result.reconvergence_after(99.0, "t1n1")
        assert math.isinf(lag) and examined == 0

    def test_percentile_of_nothing_is_none(self):
        assert percentile([], 0.99) is None
        assert percentile([3.0], 0.5) == 3.0
