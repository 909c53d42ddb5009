"""Event queue primitives for the discrete-event simulator.

The queue is the hottest data structure in a DES run (one push/pop per
message delivery and per timer), so it is built for allocation thrift:

* heap entries are plain tuples ``(time, seq, ...)`` so ordering is decided
  by C-level tuple comparison instead of a Python ``__lt__`` per sift step;
* cancellable events are slim ``__slots__`` objects (no dataclass protocol);
* fire-and-forget deliveries skip the :class:`Event` wrapper entirely via
  :meth:`EventQueue.push_call`, which stores the callable and its three
  arguments directly in the heap tuple — no closure, no handle.

Events are ordered by ``(time, seq)`` so that two events scheduled for the
same instant fire in scheduling order, keeping runs deterministic.

Cancelled events are reclaimed rather than left to age out.  A cancel drops
the event's callback at once (freeing whatever closure it held), and the
queue counts the queue-cancelled entries still sitting in the heap.  When
they exceed half the heap, above a floor of :data:`COMPACT_FLOOR` entries
(the rule CPython's asyncio loop applies to its timer heap), the heap is
rebuilt in place from its live entries.  Keys ``(time, seq)`` are unique, so
the rebuilt heap pops in exactly the same order; and because the rebuild
assigns into the same list object, callers holding the heap (the
simulator's run loop, the network fan-out) stay valid even when it happens
inside a callback.
"""

# staticcheck: hot-path
from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional

#: the heap is never rebuilt while it holds this many entries or fewer
COMPACT_FLOOR = 100


class Event:
    """A scheduled, cancellable event handle.

    ``popped`` is set by the queue when the event is handed to the simulator;
    a late ``cancel()`` on a popped event must not touch the live-event
    count.  ``live`` tracks whether the event still counts toward the owning
    queue's live total; it is cleared exactly once, whichever happens first:
    queue-level cancel, delivery, or lazy discard of a directly-cancelled
    event.
    """

    __slots__ = ("time", "seq", "callback", "label", "cancelled", "popped", "live")

    def __init__(self, time: float, seq: int, callback: Callable[[], None], label: str = "") -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.label = label
        self.cancelled = False
        self.popped = False
        self.live = True

    def cancel(self) -> None:
        """Mark the event so the queue skips it when popped, and drop its callback."""
        self.cancelled = True
        self.callback = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "live"
        return f"Event(t={self.time:.6f}, seq={self.seq}, {state}, label={self.label!r})"


class EventQueue:
    """A cancellable priority queue of scheduled work.

    Two entry kinds share one heap (and one ``seq`` counter, so cross-kind
    FIFO ties stay deterministic):

    * ``(time, seq, Event)`` — cancellable, pushed by :meth:`push`;
    * ``(time, seq, fn, a, b, c)`` — a direct call ``fn(a, b, c)``, pushed by
      :meth:`push_call`; never cancellable, used for message deliveries.

    ``seq`` is unique, so tuple comparison never reaches the third element.

    ``_cancelled`` counts the entries cancelled through :meth:`cancel` that
    are still in the heap; it drives the in-place rebuild (module docstring).
    Events cancelled directly (``Event.cancel()``) are not counted: they stay
    live until the queue meets them, by pop or by rebuild.
    """

    def __init__(self) -> None:
        self._heap: list = []
        self._counter = itertools.count()
        self._live = 0
        self._cancelled = 0

    def push(self, time: float, callback: Callable[[], None], label: str = "") -> Event:
        event = Event(time, next(self._counter), callback, label)
        heapq.heappush(self._heap, (time, event.seq, event))
        self._live += 1
        return event

    def push_call(self, time: float, fn: Callable[..., None], a: Any, b: Any, c: Any) -> None:
        """Schedule ``fn(a, b, c)`` at ``time`` with no cancellation handle."""
        heapq.heappush(self._heap, (time, next(self._counter), fn, a, b, c))
        self._live += 1

    def _forget(self, event: Event) -> None:
        """Remove ``event`` from the live count exactly once.

        Events can leave the live set three ways — queue-level cancel,
        delivery via ``pop``, or lazy discard after a *direct*
        ``Event.cancel()`` (timers cancel their events without going through
        the queue) — and the ``live`` flag guarantees each is counted once.
        """
        if event.live:
            event.live = False
            self._live -= 1

    def _discard(self, event: Event) -> None:
        """Account for a cancelled ``event`` taken off the heap."""
        if event.live:  # cancelled directly: it leaves the live set only now
            event.live = False
            self._live -= 1
        else:
            self._cancelled -= 1

    def compact_if_wasteful(self) -> None:
        """Rebuild the heap from its live entries if cancelled ones dominate."""
        heap = self._heap
        if self._cancelled * 2 <= len(heap) or len(heap) <= COMPACT_FLOOR:
            return
        live = []
        for entry in heap:
            payload = entry[2]
            if payload.__class__ is Event and payload.cancelled:
                self._forget(payload)
            else:
                live.append(entry)
        heap[:] = live
        heapq.heapify(heap)
        self._cancelled = 0

    def pop(self) -> Optional[Event]:
        """Pop the earliest non-cancelled event, or ``None`` if empty.

        Direct-call entries are wrapped into a fired-once :class:`Event` so
        callers see one uniform handle type.  The simulator's run loop reads
        the heap directly and never pays for this wrapper.
        """
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            payload = entry[2]
            if payload.__class__ is not Event:
                self._live -= 1
                fn, a, b, c = entry[2], entry[3], entry[4], entry[5]
                wrapper = Event(entry[0], entry[1], lambda: fn(a, b, c))
                wrapper.live = False
                wrapper.popped = True
                return wrapper
            if payload.cancelled:
                self._discard(payload)
                continue
            self._forget(payload)
            payload.popped = True
            return payload
        return None

    def peek_time(self) -> Optional[float]:
        """Return the timestamp of the earliest live event without popping."""
        heap = self._heap
        while heap:
            payload = heap[0][2]
            if payload.__class__ is Event and payload.cancelled:
                self._discard(heapq.heappop(heap)[2])
                continue
            return heap[0][0]
        return None

    def cancel(self, event: Event) -> None:
        if event.popped or event.cancelled:
            return  # already delivered (or already cancelled): nothing is live
        event.cancel()
        self._forget(event)
        self._cancelled += 1
        self.compact_if_wasteful()

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0
