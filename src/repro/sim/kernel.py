"""Coroutine-based discrete-event kernel.

Activities are generator functions. They ``yield`` effect objects and the
kernel resumes them when the effect completes:

* :class:`Timeout` — resume after a simulated delay,
* :class:`Acquire` / :class:`Release` — bounded-capacity resources with a
  FIFO wait queue (used to model the node's limited startup parallelism),
* :class:`WaitEvent` — resume when a :class:`SimEvent` is triggered,
* another generator — run it as a sub-activity and resume with its return
  value (``return x`` inside the child).

Example::

    k = Kernel()

    def boot(k, dev):
        yield Timeout(0.5)
        return f"{dev} up"

    def main(k):
        result = yield boot(k, "eth0")
        ...

    k.spawn(main(k))
    k.run()
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import SimulationError
from repro.sim.clock import SimClock
from repro.sim.events import EventQueue

SimGen = Generator[Any, Any, Any]


@dataclass
class Timeout:
    """Suspend the activity for ``delay`` simulated seconds."""

    delay: float


class SimEvent:
    """One-shot broadcast event activities can wait on.

    ``trigger(value)`` resumes every current and future waiter with
    ``value`` (future waiters resume immediately).
    """

    __slots__ = ("triggered", "value", "_waiters")

    def __init__(self) -> None:
        self.triggered = False
        self.value: Any = None
        self._waiters: list[Callable[[Any], None]] = []

    def add_waiter(self, resume: Callable[[Any], None]) -> None:
        if self.triggered:
            resume(self.value)
        else:
            self._waiters.append(resume)

    def trigger(self, value: Any = None) -> None:
        if self.triggered:
            raise SimulationError("SimEvent triggered twice")
        self.triggered = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for resume in waiters:
            resume(value)


@dataclass
class WaitEvent:
    """Suspend until ``event`` triggers; resumes with its value."""

    event: SimEvent


class Resource:
    """Bounded-capacity resource with FIFO admission.

    Models k-way parallelism (e.g. 20 CPU cores concurrently executing
    container-creation critical paths).
    """

    def __init__(self, capacity: int, name: str = "resource") -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._queue: deque[Callable[[Any], None]] = deque()

    @property
    def queued(self) -> int:
        return len(self._queue)

    def acquire(self, resume: Callable[[Any], None]) -> None:
        if self.in_use < self.capacity:
            self.in_use += 1
            resume(None)
        else:
            self._queue.append(resume)

    def release(self) -> Optional[Callable[[Any], None]]:
        if self.in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._queue:
            # Hand the slot straight to the next waiter.
            return self._queue.popleft()
        self.in_use -= 1
        return None


@dataclass
class Acquire:
    """Suspend until one slot of ``resource`` is granted."""

    resource: Resource


@dataclass
class Release:
    """Give back one slot of ``resource`` (resumes immediately)."""

    resource: Resource


@dataclass
class _Failure:
    """Wrapper marking a completion value as a raised exception."""

    exc: BaseException


@dataclass
class _Task:
    """Bookkeeping for one spawned activity."""

    gen: SimGen
    done: SimEvent = field(default_factory=SimEvent)
    parent: Optional["_Task"] = None


class Kernel:
    """The discrete-event scheduler."""

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.clock = clock or SimClock()
        self.queue = EventQueue()
        self._active = 0

    # -- public API --------------------------------------------------------

    @property
    def now(self) -> float:
        return self.clock.now

    def spawn(self, gen: SimGen) -> SimEvent:
        """Start an activity; returns a :class:`SimEvent` for its result."""
        task = _Task(gen=gen)
        self._active += 1
        self.queue.push(self.clock.now, lambda: self._step(task, None), label="spawn")
        return task.done

    def call_at(self, time: float, fn: Callable[[], Any], label: str = "") -> None:
        """Schedule a plain callback at absolute simulated time."""
        if time < self.clock.now:
            raise SimulationError(f"call_at in the past: {time} < {self.clock.now}")
        self.queue.push(time, fn, label=label)

    def call_after(self, delay: float, fn: Callable[[], Any], label: str = "") -> None:
        """Schedule a plain callback after a relative delay."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self.queue.push(self.clock.now + delay, fn, label=label)

    def run(self, until: Optional[float] = None) -> float:
        """Process events until the queue drains (or ``until`` is reached).

        Returns the final simulated time.
        """
        queue, clock = self.queue, self.clock
        if until is None:
            # Nothing can stop the drain early, so pop once per event.
            while (ev := queue.pop()) is not None:
                clock.advance_to(ev.time)
                ev.callback()
            return clock.now
        while (t := queue.peek_time()) is not None:
            if t > until:
                clock.advance_to(until)
                return clock.now
            ev = queue.pop()
            clock.advance_to(ev.time)
            ev.callback()
        return clock.now

    def run_all(self, gens: Iterable[SimGen]) -> list[Any]:
        """Spawn ``gens`` concurrently, run to completion, return results.

        An exception raised by any activity is re-raised here once the
        event loop drains (the first one, in spawn order).
        """
        events = [self.spawn(g) for g in gens]
        self.run()
        missing = [i for i, e in enumerate(events) if not e.triggered]
        if missing:
            raise SimulationError(
                f"{len(missing)} activities never completed (deadlock?): idx {missing[:5]}"
            )
        results = []
        for e in events:
            if isinstance(e.value, _Failure):
                raise e.value.exc
            results.append(e.value)
        return results

    # -- internals ----------------------------------------------------------

    def _step(self, task: _Task, send_value: Any) -> None:
        """Resume ``task.gen`` with ``send_value`` and process its yield.

        If the value is a :class:`_Failure` (a child activity raised), the
        exception is thrown *into* the generator at the yield point so
        ordinary try/except works across activity boundaries.
        """
        try:
            if isinstance(send_value, _Failure):
                yielded = task.gen.throw(send_value.exc)
            else:
                yielded = task.gen.send(send_value)
        except StopIteration as stop:
            self._active -= 1
            task.done.trigger(stop.value)
            return
        except SimulationError:
            raise
        except Exception as exc:  # noqa: BLE001 - forwarded to the waiter
            self._active -= 1
            task.done.trigger(_Failure(exc))
            return
        self._dispatch(task, yielded)

    def _dispatch(self, task: _Task, eff: Any) -> None:
        resume = lambda v=None: self._step(task, v)  # noqa: E731
        if isinstance(eff, Timeout):
            if eff.delay < 0:
                raise SimulationError(f"negative timeout: {eff.delay}")
            self.queue.push(self.clock.now + eff.delay, resume, label="timeout")
        elif isinstance(eff, Acquire):
            eff.resource.acquire(resume)
        elif isinstance(eff, Release):
            handoff = eff.resource.release()
            if handoff is not None:
                # Waiter runs as a fresh event at the current instant.
                self.queue.push(self.clock.now, lambda: handoff(None), label="handoff")
            resume(None)
        elif isinstance(eff, WaitEvent):
            eff.event.add_waiter(resume)
        elif isinstance(eff, SimEvent):
            eff.add_waiter(resume)
        elif hasattr(eff, "send") and hasattr(eff, "throw"):
            # Sub-activity: run child, resume parent with its return value.
            child = _Task(gen=eff)
            self._active += 1
            child.done.add_waiter(resume)
            self.queue.push(self.clock.now, lambda: self._step(child, None), label="sub")
        else:
            raise SimulationError(f"activity yielded unsupported effect: {eff!r}")
