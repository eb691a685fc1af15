"""Tests for the discrete-event kernel."""

import pytest

from repro.errors import SchedulingError
from repro.netsim.events import EventQueue, Simulator


class TestEventQueue:
    def test_fifo_within_same_time(self):
        queue = EventQueue()
        order = []
        queue.push(5.0, lambda: order.append("a"))
        queue.push(5.0, lambda: order.append("b"))
        while True:
            item = queue.pop()
            if item is None:
                break
            item[2]()
        assert order == ["a", "b"]

    def test_time_ordering(self):
        queue = EventQueue()
        queue.push(9.0, lambda: None)
        queue.push(3.0, lambda: None)
        assert queue.pop()[0] == 3.0

    def test_cancel(self):
        queue = EventQueue()
        token = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        queue.cancel(token)
        assert queue.pop()[0] == 2.0

    def test_peek_skips_cancelled(self):
        queue = EventQueue()
        token = queue.push(1.0, lambda: None)
        queue.cancel(token)
        assert queue.peek_time() is None
        assert not queue

    def test_len_accounts_for_cancellations(self):
        queue = EventQueue()
        token = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        queue.cancel(token)
        assert len(queue) == 1


class TestCrossInstanceDeterminism:
    """Same-schedule EventQueue instances replay identical pop orderings
    regardless of process history.

    Mirrors the PR 1 ``MiningPool`` regression (pool ids from a
    process-global ``itertools.count``): if the queue's tie-break token
    counter were process-global rather than instance-scoped
    (``events.py``'s ``self._counter``), a queue created *after* another
    queue had consumed tokens would break same-time ties differently —
    and every downstream simulation would silently diverge between a
    fresh process and one that had already run a trial.  The lint tier's
    RPL102 (global-state) guards the pattern statically; this test pins
    the observable behaviour.
    """

    #: One schedule with plenty of same-time ties and interleaved
    #: cancellations — the paths where token values decide the order.
    SCHEDULE = [
        (5.0, "a"),
        (5.0, "b"),
        (1.0, "c"),
        (5.0, "d"),
        (3.0, "e"),
        (3.0, "f"),
        (1.0, "g"),
        (9.0, "h"),
    ]
    CANCEL = ("b", "f")

    @classmethod
    def _drive(cls, queue):
        """Push the schedule, cancel some, pop all; return the history."""
        tokens = {}
        for time, label in cls.SCHEDULE:
            tokens[label] = queue.push(time, lambda: None)
        for label in cls.CANCEL:
            queue.cancel(tokens[label])
        by_token = {token: label for label, token in tokens.items()}
        history = []
        while True:
            item = queue.pop()
            if item is None:
                return tokens, history
            time, token, _ = item
            history.append((time, token, by_token[token]))

    def test_same_schedule_same_pop_ordering(self):
        _, first = self._drive(EventQueue())
        _, second = self._drive(EventQueue())
        assert first == second

    def test_fresh_instance_unaffected_by_process_history(self):
        # Burn through several instances (and many token draws) first: a
        # process-global counter would shift every later queue's tokens.
        for _ in range(3):
            self._drive(EventQueue())
        tokens, history = self._drive(EventQueue())
        assert sorted(tokens.values()) == list(range(len(self.SCHEDULE)))
        assert [label for _, _, label in history] == [
            "c",
            "g",
            "e",
            "a",
            "d",
            "h",
        ]

    def test_interleaved_construction_stays_independent(self):
        queue_a = EventQueue()
        queue_b = EventQueue()
        # Interleave pushes so shared hidden counter state would skew
        # one queue's tokens relative to the other.
        for time, _ in self.SCHEDULE:
            queue_a.push(time, lambda: None)
            queue_b.push(time, lambda: None)
        order_a = []
        order_b = []
        while queue_a:
            order_a.append(queue_a.pop()[:2])
        while queue_b:
            order_b.append(queue_b.pop()[:2])
        assert order_a == order_b


class TestSimulator:
    def test_clock_advances_with_events(self):
        sim = Simulator()
        times = []
        sim.schedule(10.0, lambda: times.append(sim.now))
        sim.schedule(5.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [5.0, 10.0]

    def test_run_until_stops_at_horizon(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append(5))
        sim.schedule(15.0, lambda: fired.append(15))
        processed = sim.run_until(10.0)
        assert processed == 1
        assert fired == [5]
        assert sim.now == 10.0
        sim.run_until(20.0)
        assert fired == [5, 15]

    def test_events_can_schedule_events(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append("first")
            sim.schedule(1.0, lambda: fired.append("second"))

        sim.schedule(1.0, first)
        sim.run_until(3.0)
        assert fired == ["first", "second"]

    def test_negative_delay_rejected(self):
        with pytest.raises(SchedulingError):
            Simulator().schedule(-1.0, lambda: None)

    def test_past_horizon_rejected(self):
        sim = Simulator()
        sim.run_until(10.0)
        with pytest.raises(SchedulingError):
            sim.run_until(5.0)

    def test_schedule_at_absolute(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(7.0, lambda: fired.append(sim.now))
        sim.run_until(10.0)
        assert fired == [7.0]

    def test_cancel_via_simulator(self):
        sim = Simulator()
        fired = []
        token = sim.schedule(1.0, lambda: fired.append(1))
        sim.cancel(token)
        sim.run_until(5.0)
        assert fired == []

    def test_run_max_events(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule(float(i + 1), lambda: None)
        assert sim.run(max_events=4) == 4

    def test_events_processed_counter(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.events_processed == 2
