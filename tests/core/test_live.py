"""Tests for incremental live-point tracking (Definition 3.1)."""

import pytest

from repro.core import EventId, LiveTracker, ProtocolError, View

from ..conftest import make_event, recv, send


class TestObserve:
    def test_first_event_live(self):
        tracker = LiveTracker()
        dead, _pred, _send_lt = tracker.observe(make_event("p", 0, 1.0))
        assert dead == []
        assert tracker.is_live(EventId("p", 0))

    def test_out_of_order_rejected(self):
        tracker = LiveTracker()
        with pytest.raises(ProtocolError):
            tracker.observe(make_event("p", 1, 1.0))

    def test_internal_kills_predecessor(self):
        tracker = LiveTracker()
        tracker.observe(make_event("p", 0, 1.0))
        dead, _pred, _send_lt = tracker.observe(make_event("p", 1, 2.0))
        assert dead == [EventId("p", 0)]
        assert not tracker.is_live(EventId("p", 0))

    def test_undelivered_send_survives_successor(self):
        tracker = LiveTracker()
        s = send("p", 0, 1.0, dest="q")
        tracker.observe(s)
        dead, _pred, _send_lt = tracker.observe(make_event("p", 1, 2.0))
        assert dead == []
        assert tracker.is_live(s.eid)

    def test_delivery_kills_interior_send(self):
        tracker = LiveTracker()
        s = send("p", 0, 1.0, dest="q")
        tracker.observe(s)
        tracker.observe(make_event("p", 1, 2.0))
        dead, _pred, _send_lt = tracker.observe(recv("q", 0, 3.0, s))
        assert dead == [s.eid]

    def test_delivery_keeps_send_if_still_last(self):
        tracker = LiveTracker()
        s = send("p", 0, 1.0, dest="q")
        tracker.observe(s)
        dead, _pred, _send_lt = tracker.observe(recv("q", 0, 3.0, s))
        assert dead == []
        assert tracker.is_live(s.eid)  # still the last point at p

    def test_double_delivery_rejected(self):
        tracker = LiveTracker()
        s = send("p", 0, 1.0, dest="q")
        tracker.observe(s)
        tracker.observe(recv("q", 0, 3.0, s))
        with pytest.raises(ProtocolError):
            tracker.observe(recv("q", 1, 4.0, s))

    def test_liveness_of_unknown_event_rejected(self):
        tracker = LiveTracker()
        with pytest.raises(ProtocolError):
            tracker.is_live(EventId("p", 0))

    def test_send_lt_tracked(self):
        tracker = LiveTracker()
        s = send("p", 0, 1.5, dest="q")
        tracker.observe(s)
        assert tracker.send_lt(s.eid) == 1.5
        tracker.observe(recv("q", 0, 3.0, s))
        assert tracker.send_lt(s.eid) is None


    def test_observe_answers_last_event_and_send_lt_from_before_the_call(self):
        """``observe`` hands back what ``last_event`` and ``send_lt`` would
        have answered just before it - the estimator builds an event's
        edges from that one call."""
        tracker = LiveTracker()
        s = send("p", 0, 1.5, dest="q")
        assert tracker.observe(s) == ([], None, None)
        assert tracker.observe(make_event("q", 0, 2.0)) == ([], None, None)
        expected = (tracker.last_event("q"), tracker.send_lt(s.eid))
        dead, pred, send_lt = tracker.observe(recv("q", 1, 3.0, s))
        assert (pred, send_lt) == expected == ((EventId("q", 0), 2.0), 1.5)
        assert dead == [EventId("q", 0)]  # s is still the last point of p
        # an internal event matches no send, and neither does a late delivery
        tracker.observe(send("p", 1, 2.5, dest="q"))
        tracker.flag_lost(EventId("p", 1))
        late = recv("q", 2, 4.0, send("p", 1, 2.5, dest="q"))
        assert tracker.observe(late) == ([EventId("q", 1)], (EventId("q", 1), 3.0), None)

    def test_refused_event_leaves_the_tracker_untouched(self):
        tracker = LiveTracker()
        s = send("p", 0, 1.0, dest="q")
        tracker.observe(s)
        tracker.observe(make_event("p", 1, 2.0))
        tracker.observe(recv("q", 0, 3.0, s))
        tracker.observe(send("q", 1, 3.5, dest="p"))  # in flight, last of q
        before = (tracker.live_points(), tracker.live_count(), tracker.events_observed)
        with pytest.raises(ProtocolError):
            tracker.observe(recv("q", 2, 4.0, s))  # delivered twice
        with pytest.raises(ProtocolError):
            tracker.observe(make_event("p", 3, 5.0))  # gap
        assert (tracker.live_points(), tracker.live_count(), tracker.events_observed) == before


class TestLossFlags:
    def test_flag_lost_kills_interior_send(self):
        tracker = LiveTracker()
        s = send("p", 0, 1.0, dest="q")
        tracker.observe(s)
        tracker.observe(make_event("p", 1, 2.0))
        assert tracker.flag_lost(s.eid) == [s.eid]
        assert not tracker.is_live(s.eid)

    def test_flag_lost_keeps_last_point(self):
        tracker = LiveTracker()
        s = send("p", 0, 1.0, dest="q")
        tracker.observe(s)
        assert tracker.flag_lost(s.eid) == []
        assert tracker.is_live(s.eid)  # still last point of p

    def test_flag_idempotent(self):
        tracker = LiveTracker()
        s = send("p", 0, 1.0, dest="q")
        tracker.observe(s)
        tracker.observe(make_event("p", 1, 2.0))
        assert tracker.flag_lost(s.eid) == [s.eid]
        assert tracker.flag_lost(s.eid) == []

    def test_flag_unknown_send_noop(self):
        tracker = LiveTracker()
        assert tracker.flag_lost(EventId("p", 99)) == []

    def test_late_delivery_after_flag_tolerated(self):
        tracker = LiveTracker()
        s = send("p", 0, 1.0, dest="q")
        tracker.observe(s)
        tracker.observe(make_event("p", 1, 2.0))
        tracker.flag_lost(s.eid)
        # the "lost" message shows up anyway: must not blow up
        dead, _pred, _send_lt = tracker.observe(recv("q", 0, 3.0, s))
        assert dead == []


class TestAgainstViewOracle:
    def test_matches_view_liveness_on_trace(self, ring5_random_run):
        """The incremental tracker agrees with Definition 3.1 recomputed
        from scratch at every prefix of a real execution."""
        tracker = LiveTracker()
        view = View()
        for record in list(ring5_random_run.trace)[:150]:
            view.add(record.event)
            tracker.observe(record.event)
            assert tracker.live_points() == view.live_points()
        assert tracker.max_live >= 1
        assert tracker.events_observed == min(150, len(ring5_random_run.trace))

    def test_last_event_bookkeeping(self):
        tracker = LiveTracker()
        tracker.observe(make_event("p", 0, 1.0))
        tracker.observe(make_event("p", 1, 2.5))
        eid, lt = tracker.last_event("p")
        assert eid == EventId("p", 1)
        assert lt == 2.5
        assert tracker.last_event("q") is None
        assert tracker.last_seq("q") == -1

    def test_live_count_and_processors(self):
        tracker = LiveTracker()
        tracker.observe(make_event("a", 0, 1.0))
        tracker.observe(make_event("b", 0, 1.0))
        assert tracker.live_count() == 2
        assert tracker.processors == ("a", "b")
