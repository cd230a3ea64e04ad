"""Unit tests for the event data model."""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import Event, EventId, EventKind, link_id


class TestLinkId:
    def test_canonical_order(self):
        assert link_id("b", "a") == ("a", "b")
        assert link_id("a", "b") == ("a", "b")

    def test_symmetric(self):
        assert link_id("x", "y") == link_id("y", "x")

    def test_self_link_rejected(self):
        with pytest.raises(ValueError):
            link_id("a", "a")

    @given(st.text(min_size=1), st.text(min_size=1))
    def test_always_sorted(self, u, v):
        if u == v:
            with pytest.raises(ValueError):
                link_id(u, v)
        else:
            a, b = link_id(u, v)
            assert a <= b
            assert {a, b} == {u, v}


class TestEventId:
    def test_ordering_is_lexicographic(self):
        assert EventId("a", 1) < EventId("a", 2)
        assert EventId("a", 9) < EventId("b", 0)

    def test_pred_and_succ(self):
        eid = EventId("p", 3)
        assert eid.pred() == EventId("p", 2)
        assert eid.succ() == EventId("p", 4)

    def test_first_event_has_no_pred(self):
        assert EventId("p", 0).pred() is None

    def test_negative_seq_rejected(self):
        with pytest.raises(ValueError):
            EventId("p", -1)

    def test_hashable_and_equal(self):
        assert EventId("p", 1) == EventId("p", 1)
        assert len({EventId("p", 1), EventId("p", 1)}) == 1

    def test_str(self):
        assert str(EventId("p", 7)) == "p#7"
        assert repr(EventId("p", 7)) == "EventId(proc='p', seq=7)"

    def test_hash_and_eq_are_the_tuple_builtins(self):
        """Ids key every hot table (AGDP slots, history buffers, live
        sets): a Python-level ``__hash__``/``__eq__`` creeping back costs
        millions of interpreter frames per run."""
        assert EventId.__hash__ is tuple.__hash__
        assert EventId.__eq__ is tuple.__eq__
        assert not hasattr(EventId("p", 1), "__dict__")

    def test_an_id_is_the_plain_pair(self):
        eid = EventId(proc="p", seq=1)
        assert isinstance(eid, tuple)
        assert eid == ("p", 1) and hash(eid) == hash(("p", 1))
        assert {("p", 1): "found"}[eid] == "found"
        proc, seq = eid
        assert (proc, seq) == (eid.proc, eid.seq) == ("p", 1)

    def test_copies_keep_the_type_and_the_check(self):
        eid = EventId("p", 3)
        for clone in (copy.deepcopy(eid), pickle.loads(pickle.dumps(eid))):
            assert type(clone) is EventId and clone == eid
        assert type(eid.succ()) is type(eid.pred()) is EventId
        with pytest.raises(ValueError):
            EventId(proc="p", seq=-1)


class TestEvent:
    def test_internal_event(self):
        event = Event(EventId("p", 0), 1.0, EventKind.INTERNAL)
        assert event.proc == "p"
        assert event.seq == 0
        assert not event.is_send and not event.is_receive
        assert event.link is None

    def test_send_requires_dest(self):
        with pytest.raises(ValueError):
            Event(EventId("p", 0), 1.0, EventKind.SEND)

    def test_send_derives_link(self):
        event = Event(EventId("p", 0), 1.0, EventKind.SEND, dest="q")
        assert event.link == link_id("p", "q")
        assert event.is_send

    def test_receive_requires_send_eid(self):
        with pytest.raises(ValueError):
            Event(EventId("p", 0), 1.0, EventKind.RECEIVE)

    def test_receive_derives_link_from_sender(self):
        event = Event(
            EventId("q", 0), 2.0, EventKind.RECEIVE, send_eid=EventId("p", 5)
        )
        assert event.link == link_id("p", "q")
        assert event.is_receive

    def test_receive_from_self_rejected(self):
        with pytest.raises(ValueError):
            Event(EventId("p", 1), 2.0, EventKind.RECEIVE, send_eid=EventId("p", 0))

    def test_send_cannot_reference_send_eid(self):
        with pytest.raises(ValueError):
            Event(
                EventId("p", 0),
                1.0,
                EventKind.SEND,
                dest="q",
                send_eid=EventId("q", 0),
            )

    def test_internal_cannot_carry_message_attrs(self):
        with pytest.raises(ValueError):
            Event(EventId("p", 0), 1.0, EventKind.INTERNAL, dest="q")

    def test_frozen(self):
        event = Event(EventId("p", 0), 1.0, EventKind.INTERNAL)
        with pytest.raises(AttributeError):
            event.lt = 2.0

    def test_str_tags_kind(self):
        s = Event(EventId("p", 0), 1.0, EventKind.SEND, dest="q")
        r = Event(EventId("q", 0), 2.0, EventKind.RECEIVE, send_eid=s.eid)
        assert "s" in str(s)
        assert "r" in str(r)
