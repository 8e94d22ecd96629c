"""Unit tests for the event queue primitives."""

from __future__ import annotations

import random

import pytest

from repro.errors import SimulationError
from repro.sim.events import PRIORITY_HIGH, PRIORITY_LOW, PRIORITY_NORMAL, EventQueue


def test_pop_orders_by_time():
    q = EventQueue()
    fired = []
    q.push(3.0, lambda: fired.append(3))
    q.push(1.0, lambda: fired.append(1))
    q.push(2.0, lambda: fired.append(2))
    while q:
        q.pop()._fire()
    assert fired == [1, 2, 3]


def test_same_time_orders_by_priority():
    q = EventQueue()
    fired = []
    q.push(1.0, lambda: fired.append("low"), priority=PRIORITY_LOW)
    q.push(1.0, lambda: fired.append("high"), priority=PRIORITY_HIGH)
    q.push(1.0, lambda: fired.append("normal"), priority=PRIORITY_NORMAL)
    while q:
        q.pop()._fire()
    assert fired == ["high", "normal", "low"]


def test_same_time_same_priority_is_fifo():
    q = EventQueue()
    fired = []
    for i in range(10):
        q.push(1.0, lambda i=i: fired.append(i))
    while q:
        q.pop()._fire()
    assert fired == list(range(10))


def test_len_counts_live_events():
    q = EventQueue()
    e1 = q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    assert len(q) == 2
    e1.cancel()
    assert len(q) == 1
    q.pop()
    assert len(q) == 0
    assert not q


def test_cancelled_events_are_skipped():
    q = EventQueue()
    fired = []
    e = q.push(1.0, lambda: fired.append("cancelled"))
    q.push(2.0, lambda: fired.append("kept"))
    e.cancel()
    while q:
        q.pop()._fire()
    assert fired == ["kept"]


def test_cancel_twice_returns_false():
    q = EventQueue()
    e = q.push(1.0, lambda: None)
    assert e.cancel() is True
    assert e.cancel() is False
    assert len(q) == 0


def test_cancel_after_fire_returns_false():
    q = EventQueue()
    e = q.push(1.0, lambda: None)
    q.pop()._fire()
    assert e.fired
    assert e.cancel() is False


def test_peek_time_skips_cancelled():
    q = EventQueue()
    e = q.push(1.0, lambda: None)
    q.push(5.0, lambda: None)
    e.cancel()
    assert q.peek_time() == 5.0


def test_pop_empty_raises():
    q = EventQueue()
    with pytest.raises(SimulationError):
        q.pop()


def test_event_state_flags():
    q = EventQueue()
    e = q.push(1.0, lambda: None)
    assert e.pending and not e.fired and not e.cancelled
    q.pop()._fire()
    assert e.fired and not e.pending


def test_pop_order_is_sorted_time_priority_seq():
    """The heap's pop order is exactly ``sorted((time, priority, seq))``
    over the live events, through ties, cancellations and ``peek_time``."""
    rng = random.Random(11)
    q = EventQueue()
    events = []
    for _ in range(400):
        # Few distinct times and priorities, so both kinds of tie abound.
        time = float(rng.randrange(12)) * 0.25
        priority = rng.choice((PRIORITY_HIGH, PRIORITY_NORMAL, PRIORITY_LOW))
        events.append(q.push(time, lambda: None, priority=priority))
    assert [e.seq for e in events] == list(range(400))
    for e in rng.sample(events, 150):
        e.cancel()

    def live_keys():
        return sorted((e.time, e.priority, e.seq) for e in events if e.pending)

    popped = []
    while q:
        if len(popped) % 7 == 3:
            # Cancel a still-queued event, possibly the current head.
            rng.choice([e for e in events if e.pending]).cancel()
            if not q:
                break
        expected = live_keys()
        assert q.peek_time() == expected[0][0]
        e = q.pop()
        assert (e.time, e.priority, e.seq) == expected[0]
        e._fire()
        popped.append(e)
    assert live_keys() == [] and q.peek_time() is None
    assert len(popped) + sum(e.cancelled for e in events) == 400
