"""Tests for the event queue, virtual clock and simulator core."""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import events
from repro.sim.clock import VirtualClock
from repro.sim.events import COMPACT_FLOOR, Event, EventQueue
from repro.sim.simulator import Simulator


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now() == 0.0

    def test_custom_start(self):
        assert VirtualClock(5.0).now() == 5.0

    def test_advances(self):
        clock = VirtualClock()
        clock.advance_to(3.5)
        assert clock.now() == 3.5

    def test_rejects_backwards(self):
        clock = VirtualClock(2.0)
        with pytest.raises(ValueError):
            clock.advance_to(1.0)


class TestEventQueue:
    def test_pop_in_time_order(self):
        queue = EventQueue()
        order = []
        queue.push(2.0, lambda: order.append("b"))
        queue.push(1.0, lambda: order.append("a"))
        queue.push(3.0, lambda: order.append("c"))
        while queue:
            queue.pop().callback()
        assert order == ["a", "b", "c"]

    def test_same_time_fifo(self):
        queue = EventQueue()
        order = []
        queue.push(1.0, lambda: order.append(1))
        queue.push(1.0, lambda: order.append(2))
        queue.push(1.0, lambda: order.append(3))
        while queue:
            queue.pop().callback()
        assert order == [1, 2, 3]

    def test_cancel_skips_event(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        queue.cancel(event)
        assert len(queue) == 1
        popped = queue.pop()
        assert popped.time == 2.0

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(5.0, lambda: None)
        queue.cancel(event)
        assert queue.peek_time() == 5.0

    def test_empty_queue(self):
        queue = EventQueue()
        assert queue.pop() is None
        assert queue.peek_time() is None
        assert not queue

    def test_cancel_after_pop_does_not_corrupt_live_count(self):
        # Regression: a late cancel() on an already-popped event used to
        # decrement the live count a second time, driving it negative and
        # making the queue report empty while events remained.
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        popped = queue.pop()
        assert popped is event
        queue.cancel(event)  # late cancel of the delivered event
        assert len(queue) == 1
        assert queue  # the t=2.0 event is still live
        assert queue.pop().time == 2.0

    def test_cancel_twice_decrements_once(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        queue.cancel(event)
        queue.cancel(event)
        assert len(queue) == 1


class TestSimulator:
    def test_schedule_and_run(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(sim.now()))
        sim.schedule_after(0.5, lambda: fired.append(sim.now()))
        sim.run()
        assert fired == [0.5, 1.0]

    def test_run_until_stops_clock_at_bound(self):
        sim = Simulator()
        sim.schedule_at(10.0, lambda: None)
        end = sim.run(until=2.0)
        assert end == 2.0
        assert len(sim.queue) == 1  # future event still pending

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: sim.schedule_at(0.5, lambda: None))
        with pytest.raises(ValueError):
            sim.run()

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule_after(-1.0, lambda: None)

    def test_events_scheduled_during_run_are_processed(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append("first")
            sim.schedule_after(1.0, lambda: fired.append("second"))

        sim.schedule_at(1.0, first)
        sim.run()
        assert fired == ["first", "second"]
        assert sim.now() == 2.0

    def test_stop_halts_run(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule_at(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1]

    def test_max_events_limit(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule_at(float(i + 1), lambda: None)
        sim.run(max_events=3)
        assert sim.events_processed == 3

    def test_max_events_break_does_not_fast_forward_clock(self):
        # Regression: breaking on max_events used to advance the clock to
        # ``until`` even though events remained in the queue, so the next
        # run() processed them "in the past".
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule_at(float(i + 1), lambda i=i: fired.append((i, sim.now())))
        sim.run(until=100.0, max_events=2)
        assert sim.now() == 2.0  # clock stays at the last processed event
        sim.run(until=100.0)
        # The remaining events fire at their scheduled (future) times.
        assert fired == [(0, 1.0), (1, 2.0), (2, 3.0), (3, 4.0), (4, 5.0)]
        assert sim.now() == 100.0  # queue drained: now the horizon applies

    def test_run_until_fast_forwards_when_drained(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        end = sim.run(until=10.0)
        assert end == 10.0

    def test_direct_event_cancel_still_fast_forwards(self):
        # Timers cancel their events directly (Event.cancel), bypassing
        # EventQueue.cancel; the live count must reconcile lazily so
        # run(until=...) still recognises a drained queue and fast-forwards.
        sim = Simulator()
        event = sim.schedule_at(1.0, lambda: None)
        event.cancel()
        assert sim.run(until=10.0) == 10.0
        assert len(sim.queue) == 0

    def test_direct_then_queue_cancel_counts_once(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        event.cancel()  # direct cancel: reconciled lazily
        queue.cancel(event)  # then the queue-level cancel must not double count
        assert queue.peek_time() == 2.0
        assert len(queue) == 1

    def test_late_cancel_does_not_end_run_early(self):
        # Regression companion to the EventQueue fix: cancelling an event
        # that already fired must not make the run loop believe the queue
        # drained while live events remain.
        sim = Simulator()
        fired = []
        first = sim.schedule_at(1.0, lambda: fired.append("first"))
        sim.schedule_at(2.0, lambda: (sim.cancel(first), fired.append("second")))
        sim.schedule_at(3.0, lambda: fired.append("third"))
        sim.run()
        assert fired == ["first", "second", "third"]

    def test_step(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        assert sim.step() is True
        assert sim.step() is False

    def test_deterministic_rng(self):
        a = Simulator(seed=42).rng.random()
        b = Simulator(seed=42).rng.random()
        assert a == b

    def test_cancel_event(self):
        sim = Simulator()
        fired = []
        event = sim.schedule_at(1.0, lambda: fired.append(1))
        sim.cancel(event)
        sim.run()
        assert fired == []


def _cancelled_in_heap(queue):
    return sum(
        1 for entry in queue._heap if entry[2].__class__ is Event and entry[2].cancelled
    )


#: queue operations for the model test; ``("cancel", k)`` cancels the k
#: newest handles (some already cancelled or popped), so cancelled entries
#: often outnumber live ones and the rebuild fires
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(0, 6)),
        st.tuples(st.just("call"), st.integers(0, 6)),
        st.tuples(st.just("cancel"), st.integers(1, 8)),
        st.tuples(st.just("pop"), st.just(0)),
    ),
    min_size=20,
    max_size=150,
)


class TestQueueReclamation:
    """Cancelled events are reclaimed without changing what the queue does."""

    @settings(max_examples=150, deadline=None)
    @given(_OPS)
    def test_matches_sorted_list_model(self, ops):
        # A tiny floor makes the in-place rebuild fire throughout the run.
        with mock.patch.object(events, "COMPACT_FLOOR", 2):
            queue = EventQueue()
            model = []  # (time, seq) of live entries, kept sorted
            handles = []  # (event, (time, seq)) of every push, in push order
            seq = 0
            for op, arg in ops:
                if op == "push":
                    event = queue.push(float(arg), lambda: None)
                    handles.append((event, (float(arg), seq)))
                    model.append((float(arg), seq))
                    seq += 1
                elif op == "call":
                    queue.push_call(float(arg), print, None, None, None)
                    model.append((float(arg), seq))
                    seq += 1
                elif op == "cancel":
                    for event, key in handles[-arg:]:
                        queue.cancel(event)
                        if key in model:
                            model.remove(key)
                        assert event.callback is None or event.popped
                elif op == "pop":
                    popped = queue.pop()
                    if model:
                        model.sort()
                        assert (popped.time, popped.seq) == model.pop(0)
                    else:
                        assert popped is None
                model.sort()
                assert len(queue) == len(model)
                assert queue.peek_time() == (model[0][0] if model else None)
                assert queue._cancelled == _cancelled_in_heap(queue)
            drained = []
            while True:
                popped = queue.pop()
                if popped is None:
                    break
                drained.append((popped.time, popped.seq))
            assert drained == model
            assert queue._heap == [] and queue._cancelled == 0 and len(queue) == 0

    def test_cancel_drops_the_callback(self):
        queue = EventQueue()
        by_queue = queue.push(1.0, lambda: None)
        direct = queue.push(2.0, lambda: None)
        queue.cancel(by_queue)
        direct.cancel()
        assert by_queue.callback is None
        assert direct.callback is None
        sim = Simulator()
        timer = sim.schedule_after(1.0, lambda: None)
        sim.cancel(timer)
        assert timer.callback is None

    def test_heap_rebuilt_when_cancelled_entries_dominate(self):
        queue = EventQueue()
        timers = [queue.push(10.0 + i, lambda: None) for i in range(4 * COMPACT_FLOOR)]
        for timer in timers[: 2 * COMPACT_FLOOR]:
            queue.cancel(timer)
        # Exactly half the heap is cancelled: not yet worth a rebuild.
        assert len(queue._heap) == 4 * COMPACT_FLOOR
        queue.cancel(timers[2 * COMPACT_FLOOR])
        # The cancel that tipped the balance rebuilt the heap.
        assert queue._cancelled == 0
        assert len(queue._heap) == len(queue) == 2 * COMPACT_FLOOR - 1
        assert queue.peek_time() == timers[2 * COMPACT_FLOOR + 1].time

    def test_direct_cancel_discarded_lazily_with_correct_live_count(self):
        queue = EventQueue()
        timers = [queue.push(1.0 + i, lambda: None) for i in range(4 * COMPACT_FLOOR)]
        direct = timers[:3]
        for timer in direct:
            timer.cancel()  # not through the queue: still counted as live
        assert len(queue) == 4 * COMPACT_FLOOR
        assert queue._cancelled == 0
        # Popping reaches the directly-cancelled events and discards them.
        assert queue.pop() is timers[3]
        assert len(queue) == 4 * COMPACT_FLOOR - 4
        # A rebuild also discards directly-cancelled events, counting each once.
        for timer in timers[-4:-1]:
            timer.cancel()
        for timer in timers[4 : 4 + 2 * COMPACT_FLOOR]:
            queue.cancel(timer)
        assert queue._cancelled < COMPACT_FLOOR  # the rebuild fired
        assert not any(entry[2] in direct or entry[2].live and entry[2].cancelled
                       for entry in queue._heap)
        assert queue._cancelled == _cancelled_in_heap(queue)
        assert len(queue) == 2 * COMPACT_FLOOR - 7
        assert len(queue._heap) == len(queue) + queue._cancelled
        fired = 0
        while queue.pop() is not None:
            fired += 1
        assert fired == 2 * COMPACT_FLOOR - 7 and len(queue) == 0

    @staticmethod
    def _run_with_mid_run_cancellation():
        sim = Simulator()
        fired = []
        timers = [
            sim.schedule_at(5.0 + (i % 7), lambda i=i: fired.append(("timer", i)))
            for i in range(3 * COMPACT_FLOOR)
        ]
        for i in range(50):
            sim.schedule_call(1.0 + (i % 5), lambda a, b, c: fired.append(a), ("call", i), 0, 0)
        heap_sizes = []

        def cancel_most():
            heap = sim.queue._heap
            heap_sizes.append(len(heap))
            for timer in timers[::3] + timers[1::3]:
                sim.cancel(timer)
            heap_sizes.append(len(heap))
            fired.append(("cancelled", sim.now()))

        sim.schedule_at(3.0, cancel_most)
        end = sim.run(until=20.0)
        return fired, heap_sizes, end, sim.events_processed

    def test_rebuild_inside_a_callback_keeps_the_run_order(self):
        fired, heap_sizes, end, processed = self._run_with_mid_run_cancellation()
        # The rebuild happened inside the callback, on the run loop's heap.
        assert heap_sizes[1] < heap_sizes[0] - COMPACT_FLOOR
        with mock.patch.object(events, "COMPACT_FLOOR", 10**9):
            lazy = self._run_with_mid_run_cancellation()
        assert lazy[1][1] == lazy[1][0]  # the reference run never rebuilt
        assert (fired, end, processed) == (lazy[0], lazy[2], lazy[3])
        assert len(fired) == 50 + 1 + COMPACT_FLOOR
