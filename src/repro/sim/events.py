"""Discrete-event loop driving daemons against the virtual clock."""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.errors import InvalidArgument
from repro.util import VirtualClock


@dataclass(order=True)
class _Event:
    when: float
    seq: int
    action: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)


class EventLoop:
    """A minimal deterministic discrete-event scheduler.

    Events fire in (time, insertion) order; the shared
    :class:`~repro.util.VirtualClock` is advanced to each event's time, so
    everything in the system (RPC latency, cache TTLs, daemon periods)
    agrees on what time it is.
    """

    def __init__(self, clock: VirtualClock):
        self.clock = clock
        self._heap: list[_Event] = []
        self._seq = itertools.count()
        self.events_run = 0

    def schedule(self, delay: float, action: Callable[[], None]) -> _Event:
        """Run ``action`` after ``delay`` virtual seconds."""
        if delay < 0:
            raise InvalidArgument(f"negative delay {delay}")
        event = _Event(self.clock.now() + delay, next(self._seq), action)
        heapq.heappush(self._heap, event)
        return event

    def schedule_every(self, period: float, action: Callable[[], None]) -> Callable[[], None]:
        """Run ``action`` every ``period`` seconds until cancelled.

        Returns a cancel function.
        """
        if period <= 0:
            raise InvalidArgument(f"period must be positive, got {period}")
        state = {"stop": False}

        def fire() -> None:
            if state["stop"]:
                return
            action()
            if not state["stop"]:
                self.schedule(period, fire)

        self.schedule(period, fire)

        def cancel() -> None:
            state["stop"] = True

        return cancel

    def run_until(self, when: float) -> int:
        """Fire every event scheduled up to virtual time ``when``."""
        fired = 0
        while self._heap and self._heap[0].when <= when:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self.clock.advance_to(event.when)
            event.action()
            fired += 1
            self.events_run += 1
        self.clock.advance_to(when)
        return fired

    def run_for(self, duration: float) -> int:
        """Advance the simulation by ``duration`` virtual seconds."""
        return self.run_until(self.clock.now() + duration)

    @property
    def pending(self) -> int:
        return sum(1 for e in self._heap if not e.cancelled)
