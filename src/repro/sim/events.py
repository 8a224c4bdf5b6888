"""Time-ordered event queue with stable FIFO tie-breaking."""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.errors import SimulationError


@dataclass(eq=False, slots=True)
class Event:
    """A scheduled callback.

    Events carry no ordering of their own: the queue keys its heap on
    ``(time, seq, event)`` tuples, so every heap comparison is a C-level
    tuple compare that never reaches the event (``seq`` is unique). Two
    events at the same instant run in the order they were scheduled,
    which keeps multi-process experiments deterministic.
    """

    time: float
    seq: int
    callback: Callable[[], Any]
    cancelled: bool = False
    label: str = ""

    def cancel(self) -> None:
        """Mark the event so the kernel skips it when popped."""
        self.cancelled = True


class EventQueue:
    """Min-heap of :class:`Event` keyed by (time, insertion order)."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def push(self, time: float, callback: Callable[[], Any], label: str = "") -> Event:
        if time != time:  # NaN guard
            raise SimulationError("event time is NaN")
        seq = next(self._counter)
        ev = Event(time=time, seq=seq, callback=callback, label=label)
        heapq.heappush(self._heap, (time, seq, ev))
        self._live += 1
        return ev

    def cancel(self, ev: Event) -> None:
        """Cancel a scheduled event; it will be skipped when reached."""
        if not ev.cancelled:
            ev.cancel()
            self._live -= 1

    def pop(self) -> Optional[Event]:
        """Pop the earliest non-cancelled event, or ``None`` if empty."""
        heap = self._heap
        while heap:
            ev = heapq.heappop(heap)[2]
            if ev.cancelled:
                continue
            self._live -= 1
            return ev
        self._live = 0
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the next live event without removing it."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None
