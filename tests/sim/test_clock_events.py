"""Clock and event-queue unit tests."""

import random

import pytest

from repro.errors import SimulationError
from repro.sim.clock import SimClock
from repro.sim.events import Event, EventQueue


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_custom_start(self):
        assert SimClock(5.0).now == 5.0

    def test_advance(self):
        clock = SimClock()
        clock.advance_to(3.5)
        assert clock.now == 3.5

    def test_advance_to_same_time_is_ok(self):
        clock = SimClock(2.0)
        clock.advance_to(2.0)
        assert clock.now == 2.0

    def test_no_time_travel(self):
        clock = SimClock(10.0)
        with pytest.raises(SimulationError):
            clock.advance_to(9.999)


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        fired = []
        q.push(2.0, lambda: fired.append("b"))
        q.push(1.0, lambda: fired.append("a"))
        q.push(3.0, lambda: fired.append("c"))
        while (ev := q.pop()) is not None:
            ev.callback()
        assert fired == ["a", "b", "c"]

    def test_fifo_within_same_time(self):
        q = EventQueue()
        fired = []
        for i in range(5):
            q.push(1.0, lambda i=i: fired.append(i))
        while (ev := q.pop()) is not None:
            ev.callback()
        assert fired == [0, 1, 2, 3, 4]

    def test_len_tracks_live_events(self):
        q = EventQueue()
        e1 = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        assert len(q) == 2
        q.cancel(e1)
        assert len(q) == 1

    def test_cancelled_event_is_skipped(self):
        q = EventQueue()
        e1 = q.push(1.0, lambda: None, label="first")
        q.push(2.0, lambda: None, label="second")
        q.cancel(e1)
        popped = q.pop()
        assert popped is not None and popped.label == "second"

    def test_double_cancel_is_idempotent(self):
        q = EventQueue()
        e = q.push(1.0, lambda: None)
        q.cancel(e)
        q.cancel(e)
        assert len(q) == 0

    def test_peek_time_skips_cancelled(self):
        q = EventQueue()
        e1 = q.push(1.0, lambda: None)
        q.push(5.0, lambda: None)
        q.cancel(e1)
        assert q.peek_time() == 5.0

    def test_empty_pop_returns_none(self):
        assert EventQueue().pop() is None

    def test_nan_time_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().push(float("nan"), lambda: None)


class TestTupleHeap:
    """The heap holds ``(time, seq, event)`` tuples; events never compare."""

    def test_fifo_at_equal_times_over_10k_events(self):
        rng = random.Random(17)
        q = EventQueue()
        pushed = []
        for i in range(10_000):
            t = float(rng.randrange(50))  # ~200 events share each instant
            q.push(t, lambda: None, label=str(i))
            pushed.append((t, i))
        popped = []
        while (ev := q.pop()) is not None:
            popped.append((ev.time, int(ev.label)))
        assert popped == sorted(pushed)

    def test_cancel_peek_and_len_with_tuple_entries(self):
        q = EventQueue()
        evs = [q.push(t, lambda: None, label=f"e{t}") for t in (3.0, 1.0, 1.0, 2.0)]
        assert len(q) == 4 and q.peek_time() == 1.0
        q.cancel(evs[1])  # the head
        q.cancel(evs[2])  # its equal-time twin
        assert len(q) == 2
        assert q.peek_time() == 2.0
        assert q.pop() is evs[3]
        q.cancel(evs[0])
        assert len(q) == 0
        assert q.peek_time() is None and q.pop() is None

    def test_events_define_no_ordering(self):
        for op in ("__lt__", "__le__", "__gt__", "__ge__"):
            assert op not in vars(Event)
        a, b = Event(1.0, 0, lambda: None), Event(2.0, 1, lambda: None)
        with pytest.raises(TypeError):
            a < b  # noqa: B015 - the comparison itself must raise
