"""Shared resource models used across the datapath.

Three primitives cover nearly every contended element in Rosebud:

* :class:`BoundedFifo` — a finite queue with drop-or-block semantics,
  modelling MAC FIFOs and the width-conversion FIFOs in the switches.
* :class:`SerialLink` — a link that serializes items for a computed
  service time, modelling MAC serialization, switch output ports, and
  the 32 Gbps per-RPU ingress links.
* :class:`RoundRobinArbiter` — the default arbitration policy between
  inputs contending for the same output (§4.3).

All of them are *event-driven*: callers hand items to the resource and
get a callback when the item has passed through.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

from .kernel import Simulator
from .stats import CounterSet


class BoundedFifo:
    """A byte-bounded FIFO with configurable overflow behaviour.

    ``capacity_bytes`` of None means unbounded.  When full, ``push``
    returns False and records a drop (tail-drop, like a MAC FIFO).
    """

    def __init__(
        self,
        name: str = "fifo",
        capacity_bytes: Optional[int] = None,
    ) -> None:
        self.name = name
        self.capacity_bytes = capacity_bytes
        self._items: Deque[Tuple[Any, int]] = deque()
        self._occupancy = 0
        self.counters = CounterSet(["pushes", "pops", "drops", "bytes_in", "bytes_out"])
        self._pushes = self.counters["pushes"]
        self._pops = self.counters["pops"]
        self._drops = self.counters["drops"]
        self._bytes_in = self.counters["bytes_in"]
        self._bytes_out = self.counters["bytes_out"]

    @property
    def occupancy_bytes(self) -> int:
        return self._occupancy

    def __len__(self) -> int:
        return len(self._items)

    def space_for(self, nbytes: int) -> bool:
        if self.capacity_bytes is None:
            return True
        return self._occupancy + nbytes <= self.capacity_bytes

    def push(self, item: Any, nbytes: int) -> bool:
        if not self.space_for(nbytes):
            self._drops.add()
            return False
        self._items.append((item, nbytes))
        self._occupancy += nbytes
        self._pushes.add()
        self._bytes_in.add(nbytes)
        return True

    def pop(self) -> Optional[Tuple[Any, int]]:
        if not self._items:
            return None
        item, nbytes = self._items.popleft()
        self._occupancy -= nbytes
        self._pops.add()
        self._bytes_out.add(nbytes)
        return item, nbytes

    def peek(self) -> Optional[Tuple[Any, int]]:
        return self._items[0] if self._items else None


class SerialLink:
    """A work-conserving serializer.

    Items queue in arrival order; each occupies the link for a service
    time computed by ``service_time(item, nbytes)``.  ``on_done(item)``
    fires when the item fully exits the link, i.e. after store-and-
    forward serialization — matching how a packet must fully land in an
    RPU's memory before the core is notified (§6.2).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        service_time: Callable[[Any, int], float],
        on_done: Callable[[Any], None],
        queue_capacity_bytes: Optional[int] = None,
        cut_through_cycles: Optional[float] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self._service_time = service_time
        self._on_done = on_done
        self.queue = BoundedFifo(name + ".q", queue_capacity_bytes)
        self._busy = False
        self._paused = False
        self.busy_time = 0.0
        #: if set, the item is *delivered* this many time units after
        #: service starts (cut-through), while the link stays occupied
        #: for the full service time (store-and-forward otherwise)
        self.cut_through_cycles = cut_through_cycles
        self.counters = CounterSet(["sent", "dropped", "bytes"])
        self._sent = self.counters["sent"]
        self._dropped = self.counters["dropped"]
        self._bytes = self.counters["bytes"]

    @property
    def busy(self) -> bool:
        return self._busy

    @property
    def paused(self) -> bool:
        return self._paused

    def pause(self) -> None:
        """Stop starting new items (the in-flight one completes); queued
        items wait — how a downed link backpressures its FIFO."""
        self._paused = True

    def resume(self) -> None:
        if not self._paused:
            return
        self._paused = False
        if not self._busy:
            self._start_next()

    def utilization(self, elapsed: float) -> float:
        return self.busy_time / elapsed if elapsed > 0 else 0.0

    def offer(self, item: Any, nbytes: int) -> bool:
        """Enqueue an item; returns False (and drops) if the queue is full."""
        if not self.queue.push(item, nbytes):
            self._dropped.add()
            return False
        if not self._busy:
            self._start_next()
        return True

    def _start_next(self) -> None:
        if self._paused:
            self._busy = False
            return
        entry = self.queue.pop()
        if entry is None:
            self._busy = False
            return
        item, nbytes = entry
        self._busy = True
        duration = self._service_time(item, nbytes)
        self.busy_time += duration
        if self.cut_through_cycles is not None:
            deliver_at = min(duration, self.cut_through_cycles)
            self.sim.schedule(
                deliver_at, lambda: self._deliver(item, nbytes), name=self.name
            )
            self.sim.schedule(duration, self._release, name=self.name)
        else:
            self.sim.schedule(
                duration, lambda: self._finish(item, nbytes), name=self.name
            )

    def _finish(self, item: Any, nbytes: int) -> None:
        self._deliver(item, nbytes)
        self._release()

    def _deliver(self, item: Any, nbytes: int) -> None:
        self._sent.add()
        self._bytes.add(nbytes)
        self._on_done(item)

    def _release(self) -> None:
        self._start_next()


class RoundRobinArbiter:
    """Round-robin selection among a fixed set of input indices.

    ``select(ready)`` picks the next ready input at or after the last
    grant + 1, the standard RR policy the paper's switches use.
    """

    def __init__(self, n_inputs: int) -> None:
        if n_inputs <= 0:
            raise ValueError("arbiter needs at least one input")
        self.n_inputs = n_inputs
        self._last = n_inputs - 1

    def select(self, ready: List[bool]) -> Optional[int]:
        if len(ready) != self.n_inputs:
            raise ValueError("ready vector length mismatch")
        for offset in range(1, self.n_inputs + 1):
            idx = (self._last + offset) % self.n_inputs
            if ready[idx]:
                self._last = idx
                return idx
        return None


class PriorityArbiter:
    """Fixed-priority arbitration (lowest index wins), the alternative
    policy §4.3 mentions can replace round robin."""

    def __init__(self, n_inputs: int) -> None:
        if n_inputs <= 0:
            raise ValueError("arbiter needs at least one input")
        self.n_inputs = n_inputs

    def select(self, ready: List[bool]) -> Optional[int]:
        if len(ready) != self.n_inputs:
            raise ValueError("ready vector length mismatch")
        for idx, is_ready in enumerate(ready):
            if is_ready:
                return idx
        return None
