"""Batch APIs are observationally identical to their scalar loops.

:meth:`ClockModel.lt_batch`, :meth:`AGDP.step_batch` (both backends) and
:meth:`HistoryModule.prepare_payloads` have no production caller since
the engine and the estimator went one event at a time; they stay as
``bench/trace.py`` hook points.  Each still promises *exactly* the
scalar semantics - same values, same stats, same sharing-visible
behavior - and these properties pin that promise directly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AGDP, NumpyAGDP
from repro.core.events import Event, EventId, EventKind
from repro.core.history import HistoryModule
from repro.sim.clock import AffineClock, PerfectClock, PiecewiseDriftingClock

_RTS = st.lists(
    st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
    min_size=1,
    max_size=64,
)


class TestClockBatchParity:
    @given(seed=st.integers(min_value=0, max_value=1_000), rts=_RTS)
    @settings(max_examples=100, deadline=None)
    def test_drifting_clock(self, seed, rts):
        # two fresh clocks from the same seed: batch on one, scalars on
        # the other, so the lazy segment extension can't cross-pollinate
        batch_clock = PiecewiseDriftingClock(seed)
        scalar_clock = PiecewiseDriftingClock(seed)
        assert batch_clock.lt_batch(rts) == [scalar_clock.lt(rt) for rt in rts]

    @given(rts=_RTS)
    @settings(max_examples=50, deadline=None)
    def test_affine_and_perfect(self, rts):
        for clock in (PerfectClock(), AffineClock(rate=1.0 + 150e-6, offset=0.25)):
            assert clock.lt_batch(rts) == [clock.lt(rt) for rt in rts]

    def test_batch_then_scalar_interleaving(self):
        # a batch call must leave the lazy state exactly where the scalar
        # walk would: later scalar reads agree with a scalar-only twin
        batched = PiecewiseDriftingClock(7)
        scalar = PiecewiseDriftingClock(7)
        batched.lt_batch([0.5, 3.0, 9.75])
        for rt in (0.5, 3.0, 9.75):
            scalar.lt(rt)
        for rt in (10.0, 12.5, 40.0):
            assert batched.lt(rt) == scalar.lt(rt)


def _apply_script(agdp, script, *, batch):
    if batch:
        agdp.step_batch(script)
    else:
        for node, edges, kills in script:
            agdp.step(node, edges, kills)
    return agdp


@st.composite
def step_scripts(draw):
    """Well-formed AGDP step scripts: edges incident to the new node."""
    names = [f"n{i}" for i in range(draw(st.integers(min_value=1, max_value=8)))]
    script = []
    live = ["s"]
    for node in names:
        edges = [
            (peer, node, draw(st.floats(min_value=0.01, max_value=5.0)))
            for peer in draw(
                st.lists(st.sampled_from(live), unique=True, min_size=1, max_size=3)
            )
        ]
        kills = []
        killable = [p for p in live if p != "s"]
        if killable and draw(st.booleans()):
            kills.append(draw(st.sampled_from(killable)))
        script.append((node, edges, kills))
        live.append(node)
        live = [p for p in live if p not in kills]
    return script


class TestAGDPBatchParity:
    @given(step_scripts())
    @settings(max_examples=100, deadline=None)
    def test_dict_backend(self, script):
        batched = _apply_script(AGDP(source="s"), script, batch=True)
        scalar = _apply_script(AGDP(source="s"), script, batch=False)
        assert batched.live_nodes == scalar.live_nodes
        for x in batched.live_nodes:
            for y in batched.live_nodes:
                assert batched.distance(x, y) == scalar.distance(x, y)
        assert batched.stats.__dict__ == scalar.stats.__dict__

    @given(step_scripts())
    @settings(max_examples=50, deadline=None)
    def test_numpy_backend_matches_dict_batch(self, script):
        batched = _apply_script(NumpyAGDP(source="s"), script, batch=True)
        scalar = _apply_script(AGDP(source="s"), script, batch=False)
        assert batched.live_nodes == scalar.live_nodes
        for x in batched.live_nodes:
            for y in batched.live_nodes:
                assert batched.distance(x, y) == pytest.approx(
                    scalar.distance(x, y), abs=1e-12
                )


class TestPreparePayloadsParity:
    def _module(self, *, events=6):
        module = HistoryModule("a", ["b", "c", "d"])
        for i in range(events):
            module.record_local(Event(EventId("a", i), float(i + 1), EventKind.INTERNAL))
        return module

    def test_equal_to_per_neighbor_loop(self):
        batched = self._module()
        scalar = self._module()
        many = batched.prepare_payloads(["b", "c", "d"])
        for neighbor in ("b", "c", "d"):
            payload, _token = scalar.prepare_payload(neighbor)
            assert many[neighbor][0] == payload

    def test_identical_views_share_one_payload_object(self):
        module = self._module()
        many = module.prepare_payloads(["b", "c", "d"])
        # fresh module, no watermark divergence: one payload serves all
        assert many["b"][0] is many["c"][0] is many["d"][0]

    def test_diverged_watermarks_get_distinct_payloads(self):
        module = self._module()
        # reliable mode settles the token at prepare time: b's watermark
        # advances immediately, so the next burst diverges b from c
        module.prepare_payload("b")
        module.record_local(Event(EventId("a", 6), 7.0, EventKind.INTERNAL))
        many = module.prepare_payloads(["b", "c"])
        assert many["b"][0] != many["c"][0]
        assert len(many["c"][0].records) > len(many["b"][0].records)

    def test_tokens_are_independent(self):
        module = HistoryModule("a", ["b", "c"], reliable=False)
        module.record_local(Event(EventId("a", 0), 1.0, EventKind.INTERNAL))
        many = module.prepare_payloads(["b", "c"])
        tokens = {neighbor: token for neighbor, (_payload, token) in many.items()}
        module.confirm_delivery(tokens["b"])
        module.abort_delivery(tokens["c"])  # must not raise or cross-confirm
