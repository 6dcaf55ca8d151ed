"""Discrete-event simulation kernel.

The kernel is deliberately small: one binary heap of
``(time, seq, event)`` entries, where ``seq`` is a monotonically
increasing schedule number, so same-time events fire in schedule order
and the heap never compares two events.  Cancelled events stay in the
heap and are skipped when they reach its top (lazy deletion); once they
exceed a fraction of the stored entries the heap is compacted wholesale,
so a workload that cancels aggressively (e.g. timeout timers) cannot
bloat the queue.

Every way of advancing time goes through the one loop in
:meth:`Simulator.run`: :meth:`~Simulator.step` is ``run`` with a budget
of one event, and :meth:`~Simulator.run_profile` is ``run`` with an
observer that counts event names.  The loop stops before firing the
next event when any of these holds:

* :meth:`~Simulator.stop` was called (typically by a callback, e.g. a
  measurement counter reaching its phase target) — the in-flight event
  completes first;
* the queue is empty, or the next event lies beyond ``until`` — in
  which case the clock advances to exactly ``until``;
* ``max_events`` events have fired, or the clock has passed
  ``deadline`` (a stall guard) — the clock stays where the last event
  left it.

Time is kept in *cycles* of the Rosebud fabric clock by convention
(250 MHz => 4 ns per cycle), but the kernel itself is unit-agnostic; the
:mod:`repro.sim.clock` helpers convert between cycles, nanoseconds, and
throughput figures.

Invariant: :attr:`Simulator.events_processed` counts only *fired*
callbacks.  Cancelled events never contribute, no matter where in the
queue they were skipped or compacted away.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised when the kernel is used inconsistently (e.g. scheduling in
    the past) or a driven process dies."""


class Event:
    """A single scheduled callback.

    The queue orders events by ``(time, seq)`` so that simultaneous
    events run in the order they were scheduled, which keeps runs
    deterministic.
    """

    __slots__ = ("time", "seq", "callback", "name", "cancelled", "_sim")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], Any],
        name: str = "",
        cancelled: bool = False,
        _sim: Optional["Simulator"] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.name = name
        self.cancelled = cancelled
        self._sim = _sim

    def __repr__(self) -> str:
        return (
            f"Event(time={self.time!r}, seq={self.seq}, name={self.name!r}, "
            f"cancelled={self.cancelled})"
        )

    def cancel(self) -> None:
        """Prevent the event from firing.

        Cancelled events stay queued but are skipped when they reach the
        top of the heap; this is O(1) and avoids heap surgery.  The
        owning simulator counts them and compacts the queue when they
        pile up.
        """
        if self.cancelled:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._n_cancelled += 1


@dataclass
class SimProfile:
    """What :meth:`Simulator.run_profile` measured."""

    events_processed: int
    wall_seconds: float
    events_per_sec: float
    top_events: List[Tuple[str, int]]

    def format(self) -> str:
        lines = [
            f"events processed : {self.events_processed}",
            f"wall seconds     : {self.wall_seconds:.4f}",
            f"events/sec       : {self.events_per_sec:,.0f}",
        ]
        for name, count in self.top_events:
            lines.append(f"  {name or '<unnamed>':24s} {count}")
        return "\n".join(lines)


#: Compact once cancelled events exceed this fraction of the stored
#: entries (and the absolute floor below, so tiny queues never bother).
COMPACT_FRACTION = 0.5
COMPACT_MIN_CANCELLED = 64

_INF = math.inf


class Simulator:
    """An event-driven simulator with deterministic ordering.

    Typical use::

        sim = Simulator()
        sim.schedule(10, lambda: print("at t=10"))
        sim.run()
    """

    def __init__(self) -> None:
        #: ``(time, seq, event)`` entries, live and cancelled; the list
        #: object never changes, so the run loop may hold it in a local
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self._now = 0.0
        self._stopped = False
        self._n_cancelled = 0  # cancelled events still stored
        self.events_processed = 0
        self.compactions = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    def schedule(
        self, delay: float, callback: Callable[[], Any], name: str = ""
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, name)

    def schedule_at(
        self, time: float, callback: Callable[[], Any], name: str = ""
    ) -> Event:
        """Schedule ``callback`` at an absolute time (never NaN)."""
        if not time >= self._now:  # also rejects NaN, which compares false
            raise SimulationError(
                f"cannot schedule at t={time} before now={self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback, name, False, self)
        heappush(self._heap, (time, seq, event))
        if self._n_cancelled >= COMPACT_MIN_CANCELLED:
            self._maybe_compact()
        return event

    def _maybe_compact(self) -> None:
        if self._n_cancelled > COMPACT_FRACTION * len(self._heap):
            self.compact()

    def compact(self) -> None:
        """Drop every cancelled event still stored and rebuild the heap.

        Runs automatically once cancelled events exceed
        ``COMPACT_FRACTION`` of the stored entries; callable directly
        for tests and long-idle housekeeping.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapify(heap)
        self._n_cancelled = 0
        self.compactions += 1

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or None if the queue is empty.

        Cancelled events at the top of the heap are discarded as a side
        effect, so repeated peeks stay O(1) amortized.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            if not entry[2].cancelled:
                return entry[0]
            heappop(heap)
            self._n_cancelled -= 1
        return None

    def iter_pending(self) -> Iterator[Tuple[float, str]]:
        """Yield ``(time, name)`` for every live pending event.

        Non-destructive and unordered; cancelled events are skipped.
        This is the introspection surface the fluid fast-forward engine
        uses to fingerprint the queue and find far-future one-shots.
        """
        for time, _seq, event in self._heap:
            if not event.cancelled:
                yield time, event.name

    def warp(self, delta: float, freeze_after: Optional[float] = None) -> None:
        """Jump the clock forward by ``delta``, carrying pending events.

        Every live event scheduled before ``freeze_after`` is shifted by
        ``delta`` (preserving relative offsets and the ``(time, seq)``
        firing order); events at or after ``freeze_after`` keep their
        absolute times — they are one-shot appointments (fault triggers,
        deadline timers) that must fire at the wall time they name.
        With ``freeze_after=None`` everything shifts.

        This is the *epoch skip* behind the fluid fast-forward tier: the
        caller is asserting that the skipped interval would have been a
        whole number of identical steady-state periods, so translating
        the recurring event set by ``delta`` lands the simulation in a
        state congruent to the one event-by-event execution would reach.
        ``events_processed`` is untouched; the caller accounts for the
        events it analytically skipped.

        Cancelled events still stored are dropped as a side effect.
        """
        if delta <= 0:
            raise SimulationError(f"warp delta must be positive (got {delta})")
        new_now = self._now + delta
        live = [entry[2] for entry in self._heap if not entry[2].cancelled]
        if freeze_after is not None and freeze_after < new_now:
            # frozen events keep absolute times, so none may end up in
            # the past; check before mutating anything
            for event in live:
                if freeze_after <= event.time < new_now:
                    raise SimulationError(
                        f"warp to t={new_now} would jump past the frozen "
                        f"event at t={event.time}"
                    )
        for event in live:
            if freeze_after is None or event.time < freeze_after:
                event.time = event.time + delta
        heap = self._heap
        heap[:] = [(event.time, event.seq, event) for event in live]
        heapify(heap)
        self._n_cancelled = 0
        self._now = new_now

    def step(self) -> bool:
        """Run the single next event.  Returns False if none remain.

        ``events_processed`` counts only fired callbacks; events that
        were cancelled before firing are purged here without touching
        the counter.
        """
        before = self.events_processed
        self.run(max_events=1)
        return self.events_processed != before

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        deadline: Optional[float] = None,
        observer: Optional[Callable[[Event], None]] = None,
    ) -> float:
        """Fire events in ``(time, seq)`` order; returns the final time.

        Stops before the next event once :meth:`stop` has been called,
        the queue is empty, the next event lies beyond ``until``,
        ``max_events`` events have fired, or the clock has passed
        ``deadline``.  When ``until`` is given and no event at or before
        it remains, time is advanced to exactly ``until`` even if the
        last event fired earlier, mirroring how a testbench runs for a
        fixed interval; reaching ``max_events`` or ``deadline`` leaves
        the clock where the last event put it.

        ``observer``, if given, is called with each event just before
        it fires (the clock still reads the previous event's time).
        """
        horizon = _INF if until is None else until
        late = _INF if deadline is None else deadline
        # -1 never equals the fired count, so no budget costs nothing
        budget = -1 if max_events is None else (max_events if max_events > 0 else 0)
        heap = self._heap
        pop = heappop
        if observer is not None:

            def pop(heap):
                entry = heappop(heap)
                observer(entry[2])
                return entry

        fired = 0
        reached = True  # whether the clock may advance to ``until``
        self._stopped = False
        while not self._stopped:
            if fired == budget or self._now > late:
                reached = False
                break
            if not heap:
                break
            time, _seq, event = heap[0]
            if event.cancelled:
                heappop(heap)
                self._n_cancelled -= 1
                continue
            if time > horizon:
                break
            pop(heap)
            self._now = time
            fired += 1
            self.events_processed += 1
            event.callback()
        if until is not None and reached and not self._stopped and self._now < until:
            self._now = until
        return self._now

    def run_profile(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        top: int = 10,
    ) -> SimProfile:
        """Like :meth:`run`, but measure events/sec and count event names.

        Returns a :class:`SimProfile` with wall-clock dispatch rate and
        the ``top`` most frequent event names — the probe the benchmark
        suite tracks so kernel regressions surface as a number.
        """
        counts: Dict[str, int] = {}

        def count(event: Event) -> None:
            counts[event.name] = counts.get(event.name, 0) + 1

        fired_before = self.events_processed
        t0 = _time.perf_counter()  # detlint: ok(profiling wall-clock dispatch rate, not simulated time)
        self.run(until, max_events, observer=count)
        wall = _time.perf_counter() - t0  # detlint: ok(profiling wall-clock dispatch rate, not simulated time)
        fired = self.events_processed - fired_before
        ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
        return SimProfile(
            events_processed=fired,
            wall_seconds=wall,
            events_per_sec=fired / wall if wall > 0 else 0.0,
            top_events=ranked[:top],
        )

    def stop(self) -> None:
        """Stop the current :meth:`run` after the in-flight event."""
        self._stopped = True

    def process(self, generator: Iterator[float], name: str = "") -> None:
        """Drive a generator-based process.

        The generator yields delays; after each yield the kernel waits
        that many time units before resuming it.  This gives a light
        cooperative-coroutine style for sequential behaviours::

            def blinker():
                while True:
                    toggle()
                    yield 5.0

            sim.process(blinker())

        If the generator raises, the error is re-raised as
        :class:`SimulationError` naming the process, so a crash deep in
        a :meth:`run` points at the process that died instead of an
        anonymous callback.
        """

        def resume() -> None:
            try:
                delay = next(generator)
            except StopIteration:
                return
            except SimulationError:
                raise
            except Exception as exc:
                raise SimulationError(
                    f"process {name!r} died with {type(exc).__name__}: {exc}"
                ) from exc
            if delay < 0:
                raise SimulationError(f"process {name!r} yielded negative delay")
            self.schedule(delay, resume, name=name)

        self.schedule(0.0, resume, name=name)
