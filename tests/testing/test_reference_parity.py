"""Differential tests: optimized hot paths vs the frozen reference oracles.

The indexed :class:`~repro.core.history.HistoryModule` and the compacted
:class:`~repro.core.agdp_numpy.NumpyAGDP` must be *observationally
identical* to the implementations they replaced
(:mod:`repro.testing.reference`).  These tests drive old and new side by
side with bit-identical inputs and diff every observable surface after
every operation:

* history - payload records and order, loss flags, ingest returns,
  buffer size and contents, watermarks, knowledge frontier, stats
  (Lemma 3.2 report-once and Lemma 3.3 bound ride on the stats);
* AGDP - distances over the live set, node sets, and the shared
  stats counters (``pair_updates`` intentionally excluded: the
  reference preserves the old full-block counting bug).

Schedules cover both reliable mode (Figure 2 verbatim) and unreliable
mode (delivery tokens, aborts, loss flags) on a 3-processor line
``a - b - c``, so the middle processor exercises lacking refcounts > 1.
"""

from __future__ import annotations

import itertools
import math
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import NumpyAGDP
from repro.core.history import HistoryModule
from repro.testing import ReferenceHistoryModule, ReferenceNumpyAGDP

from ..conftest import make_event, recv, send
from ..core.test_agdp import agdp_scripts

PROCS = ("a", "b", "c")
NEIGHBORS = {"a": ("b",), "b": ("a", "c"), "c": ("b",)}
LINKS = (("a", "b"), ("b", "a"), ("b", "c"), ("c", "b"))


# -- schedule strategy -----------------------------------------------------------


def history_schedules():
    """Abstract op sequences; inapplicable ops are skipped deterministically."""
    op = st.one_of(
        st.tuples(st.just("internal"), st.sampled_from(PROCS)),
        st.tuples(st.just("send"), st.sampled_from(LINKS)),
        st.tuples(st.just("deliver"), st.sampled_from(LINKS)),
        st.tuples(st.just("drop"), st.sampled_from(LINKS)),
    )
    return st.lists(op, min_size=1, max_size=50)


def _assert_module_state_equal(new, ref):
    assert new.buffer_size() == ref.buffer_size()
    assert new.buffered_events() == ref.buffered_events()
    assert new.loss_flags == ref.loss_flags
    assert new.pending_tokens() == ref.pending_tokens()
    for w in PROCS:
        assert new.known_seq(w) == ref.known_seq(w)
        for u in new.neighbors:
            assert new.watermark(u, w) == ref.watermark(u, w)
    assert new.stats == ref.stats


def run_differential_schedule(ops, *, reliable, gc_enabled=True):
    """Drive HistoryModule and ReferenceHistoryModule through one schedule.

    In reliable mode a ``drop`` op is reinterpreted as ``deliver`` (the
    mode assumes no loss; silently discarding a payload whose watermarks
    already advanced would create a sequence gap by *harness* fiat, which
    neither module is specified to survive).
    """
    new = {
        p: HistoryModule(
            p, NEIGHBORS[p], reliable=reliable, track_reports=True, gc_enabled=gc_enabled
        )
        for p in PROCS
    }
    ref = {
        p: ReferenceHistoryModule(
            p, NEIGHBORS[p], reliable=reliable, track_reports=True, gc_enabled=gc_enabled
        )
        for p in PROCS
    }
    seq = {p: 0 for p in PROCS}
    clock = itertools.count()
    flights = {link: deque() for link in LINKS}

    for kind, arg in ops:
        if kind == "drop" and reliable:
            kind = "deliver"
        if kind == "internal":
            p = arg
            event = make_event(p, seq[p], float(next(clock)))
            seq[p] += 1
            new[p].record_local(event)
            ref[p].record_local(event)
        elif kind == "send":
            u, v = arg
            event = send(u, seq[u], float(next(clock)), dest=v)
            seq[u] += 1
            new[u].record_local(event)
            ref[u].record_local(event)
            payload_new, token_new = new[u].prepare_payload(v)
            payload_ref, token_ref = ref[u].prepare_payload(v)
            assert payload_new.records == payload_ref.records
            assert payload_new.loss_flags == payload_ref.loss_flags
            flights[(u, v)].append((event, payload_new, token_new, payload_ref, token_ref))
        elif kind == "deliver":
            u, v = arg
            if not flights[(u, v)]:
                continue
            event, payload_new, token_new, payload_ref, token_ref = flights[(u, v)].popleft()
            if not reliable:
                new[u].confirm_delivery(token_new)
                ref[u].confirm_delivery(token_ref)
            out_new = new[v].ingest_payload(u, payload_new)
            out_ref = ref[v].ingest_payload(u, payload_ref)
            assert out_new == out_ref
            receive = recv(v, seq[v], float(next(clock)), event)
            seq[v] += 1
            new[v].record_local(receive)
            ref[v].record_local(receive)
        else:  # drop, unreliable mode
            u, v = arg
            if not flights[(u, v)]:
                continue
            event, _pn, token_new, _pr, token_ref = flights[(u, v)].popleft()
            new[u].abort_delivery(token_new)
            ref[u].abort_delivery(token_ref)
            assert new[u].record_loss(event.eid) == ref[u].record_loss(event.eid)
        for p in PROCS:
            _assert_module_state_equal(new[p], ref[p])
    return new, ref


# -- history parity --------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(history_schedules())
def test_history_parity_reliable(ops):
    run_differential_schedule(ops, reliable=True)


@settings(max_examples=60, deadline=None)
@given(history_schedules())
def test_history_parity_unreliable(ops):
    run_differential_schedule(ops, reliable=False)


@settings(max_examples=30, deadline=None)
@given(history_schedules())
def test_history_parity_gc_disabled(ops):
    """The A2 ablation (no GC) must also match the old buffer growth."""
    run_differential_schedule(ops, reliable=True, gc_enabled=False)


def test_history_parity_dense_gossip():
    """A deterministic all-links schedule with heavy re-reporting pressure."""
    rounds = []
    for _ in range(6):
        for p in PROCS:
            rounds.append(("internal", p))
        for link in LINKS:
            rounds.append(("send", link))
        for link in LINKS:
            rounds.append(("deliver", link))
    run_differential_schedule(rounds, reliable=True)


def test_history_parity_loss_storm():
    """Unreliable mode with every other payload dropped and flags relayed."""
    ops = []
    for i in range(8):
        for link in LINKS:
            ops.append(("send", link))
            ops.append(("drop" if i % 2 else "deliver", link))
    run_differential_schedule(ops, reliable=False)


# -- AGDP parity -----------------------------------------------------------------


def _assert_agdp_equal(new, ref, live):
    assert new.nodes == ref.nodes
    assert new.live_nodes == ref.live_nodes
    for x in live:
        for y in live:
            a = new.distance(x, y)
            b = ref.distance(x, y)
            if math.isinf(b):
                assert math.isinf(a)
            else:
                assert a == pytest.approx(b, abs=1e-9)
    # pair_updates excluded: the reference keeps the old full-block counting
    assert new.stats.nodes_added == ref.stats.nodes_added
    assert new.stats.nodes_killed == ref.stats.nodes_killed
    assert new.stats.edges_inserted == ref.stats.edges_inserted
    # the reference holds a step's node beside its victim; a take-over never
    assert len(new) <= new.stats.max_nodes <= ref.stats.max_nodes


@settings(max_examples=60, deadline=None)
@given(agdp_scripts())
def test_numpy_agdp_matches_reference(steps):
    new = NumpyAGDP(source="s")
    ref = ReferenceNumpyAGDP(source="s")
    live = {"s"}
    for node, edges, kills in steps:
        new.step(node, edges, kills)
        ref.step(node, edges, kills)
        live.add(node)
        live -= set(kills)
        _assert_agdp_equal(new, ref, live)


@settings(max_examples=30, deadline=None)
@given(agdp_scripts())
def test_numpy_agdp_matches_reference_gc_off(steps):
    new = NumpyAGDP(source="s", gc_enabled=False)
    ref = ReferenceNumpyAGDP(source="s", gc_enabled=False)
    live = {"s"}
    for node, edges, kills in steps:
        new.step(node, edges, kills)
        ref.step(node, edges, kills)
        live.add(node)
        live -= set(kills)
    _assert_agdp_equal(new, ref, live)
