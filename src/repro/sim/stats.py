"""Measurement primitives: counters, rate meters, histograms.

These mirror the status counters Rosebud exposes to the host (bytes,
frames, drops, stalled cycles per interface and per RPU, §4.3) plus the
latency-sampling machinery the evaluation uses (§6.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional


class Counter:
    """A monotonically increasing event counter.

    Hot call sites bind the counter once (``self._sent =
    counters["sent"]``) and call :meth:`add` on it directly, which skips
    the name lookup :meth:`CounterSet.add` pays on every call.
    """

    __slots__ = ("name", "value", "tripwire")

    def __init__(self, name: str, value: int = 0) -> None:
        self.name = name
        self.value = value
        #: the :class:`Tripwire` watching this counter, if any
        self.tripwire: Optional["Tripwire"] = None

    def __repr__(self) -> str:
        return f"Counter(name={self.name!r}, value={self.value})"

    def add(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        self.value += amount

    def reset(self) -> None:
        self.value = 0


class _WatchedCounter(Counter):
    """A :class:`Counter` that also counts down its tripwire.

    :meth:`Tripwire.arm` switches a counter's class to this one in
    place, so references bound at construction see the check while every
    unwatched counter keeps the plain :meth:`Counter.add`.
    """

    __slots__ = ()

    def add(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        self.value += amount
        tripwire = self.tripwire
        tripwire.remaining -= amount
        if tripwire.remaining <= 0:
            tripwire.on_trip()


class Tripwire:
    """Calls ``on_trip`` once its counters have together gained
    ``remaining`` more.

    Arming switches each counter's class to :class:`_WatchedCounter`
    and points it at this tripwire, so only the counters of the armed
    tripwire pay for the countdown.  ``on_trip`` runs on every add from
    then on until the owner re-arms, so it must be idempotent
    (``Simulator.stop`` is).  A counter changed by anything other than
    :meth:`Counter.add` (a reset, or a direct write to ``value``) is not
    seen: the owner re-arms from the exact counter values at each point
    it resumes.
    """

    def __init__(self, counters: Iterable[Counter], on_trip: Callable[[], None]) -> None:
        self.counters = list(counters)
        self.on_trip = on_trip
        self.remaining = 0

    def total(self) -> int:
        """The counters' current sum."""
        return sum(counter.value for counter in self.counters)

    def arm(self, target: int) -> None:
        """Watch the counters and trip once their sum reaches ``target``."""
        for counter in self.counters:
            counter.__class__ = _WatchedCounter
            counter.tripwire = self
        self.remaining = target - self.total()

    def release(self) -> None:
        """Stop watching: the counters go back to the plain add."""
        for counter in self.counters:
            if counter.tripwire is self:
                counter.__class__ = Counter
                counter.tripwire = None


class CounterSet:
    """A named group of counters, like one interface's status block."""

    def __init__(self, names: Optional[List[str]] = None) -> None:
        self._counters: Dict[str, Counter] = {}
        for name in names or []:
            self._counters[name] = Counter(name)

    def __getitem__(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def add(self, name: str, amount: int = 1) -> None:
        self[name].add(amount)

    def value(self, name: str) -> int:
        return self[name].value

    def snapshot(self) -> Dict[str, int]:
        return {name: c.value for name, c in sorted(self._counters.items())}

    def reset(self) -> None:
        for counter in self._counters.values():
            counter.reset()


class Histogram:
    """A streaming histogram with exact percentile support.

    Stores raw samples; fine for the 1e4–1e6 sample counts our runs use.
    The fluid fast-forward tier extrapolates whole steady-state periods
    at once, so bulk repetitions go through :meth:`record_repeated`,
    which keeps them as weighted groups instead of materializing
    ``len(values) * repeat`` floats; every statistic accounts for the
    weights exactly (nearest-rank percentiles over the weighted
    distribution).
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._samples: List[float] = []
        self._sorted = True
        #: weighted groups from record_repeated: (values, repeat)
        self._bulk: List[tuple] = []

    def record(self, value: float) -> None:
        self._samples.append(value)
        self._sorted = False

    def record_repeated(self, values, repeat: int) -> None:
        """Record every value in ``values``, ``repeat`` times each.

        Equivalent to ``repeat`` rounds of :meth:`record` over
        ``values`` for all statistics, at O(len(values)) memory.
        """
        if repeat < 0:
            raise ValueError("repeat must be non-negative")
        if repeat == 0 or not values:
            return
        self._bulk.append((tuple(values), int(repeat)))

    @property
    def raw_count(self) -> int:
        """Individually recorded samples only (excludes weighted bulk)."""
        return len(self._samples)

    def samples_tail(self, start: int) -> List[float]:
        """Copy of the individually recorded samples from index ``start``
        on, in record order (valid until someone asks for a percentile,
        which sorts in place)."""
        return list(self._samples[start:])

    def __len__(self) -> int:
        return self.count

    @property
    def count(self) -> int:
        return len(self._samples) + sum(len(v) * r for v, r in self._bulk)

    @property
    def mean(self) -> float:
        total = self.count
        if total == 0:
            return 0.0
        acc = sum(self._samples)
        for values, repeat in self._bulk:
            acc += sum(values) * repeat
        return acc / total

    @property
    def minimum(self) -> float:
        candidates = []
        if self._samples:
            candidates.append(min(self._samples))
        candidates.extend(min(v) for v, _r in self._bulk)
        return min(candidates) if candidates else 0.0

    @property
    def maximum(self) -> float:
        candidates = []
        if self._samples:
            candidates.append(max(self._samples))
        candidates.extend(max(v) for v, _r in self._bulk)
        return max(candidates) if candidates else 0.0

    @property
    def stddev(self) -> float:
        n = self.count
        if n < 2:
            return 0.0
        mu = self.mean
        acc = sum((x - mu) ** 2 for x in self._samples)
        for values, repeat in self._bulk:
            acc += sum((x - mu) ** 2 for x in values) * repeat
        return math.sqrt(acc / (n - 1))

    def percentile(self, pct: float) -> float:
        """Exact percentile by nearest-rank on the (weighted) samples."""
        total = self.count
        if total == 0:
            return 0.0
        if not 0.0 <= pct <= 100.0:
            raise ValueError(f"percentile out of range: {pct}")
        if not self._sorted:
            self._samples.sort()
            self._sorted = True
        rank = max(0, math.ceil(pct / 100.0 * total) - 1)
        if not self._bulk:
            return self._samples[rank]
        weighted = [(v, 1) for v in self._samples]
        for values, repeat in self._bulk:
            weighted.extend((v, repeat) for v in values)
        weighted.sort(key=lambda pair: pair[0])
        cumulative = 0
        for value, weight in weighted:
            cumulative += weight
            if cumulative > rank:
                return value
        return weighted[-1][0]

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "mean": self.mean,
            "min": self.minimum,
            "p50": self.percentile(50),
            "p99": self.percentile(99),
            "max": self.maximum,
        }


@dataclass
class RateMeter:
    """Computes average rates over an observation window.

    Feed it byte/packet completions, then ask for Gbps/MPPS given the
    elapsed time.  This matches how the artifact's host utility reports
    "RX bytes" averaged over the run.
    """

    bytes_total: int = 0
    packets_total: int = 0
    start_time: float = 0.0

    def record_packet(self, nbytes: int) -> None:
        self.bytes_total += nbytes
        self.packets_total += 1

    def gbps(self, elapsed_seconds: float) -> float:
        if elapsed_seconds <= 0:
            return 0.0
        return self.bytes_total * 8 / elapsed_seconds / 1e9

    def mpps(self, elapsed_seconds: float) -> float:
        if elapsed_seconds <= 0:
            return 0.0
        return self.packets_total / elapsed_seconds / 1e6

    def reset(self, now: float = 0.0) -> None:
        self.bytes_total = 0
        self.packets_total = 0
        self.start_time = now


@dataclass
class ThroughputSample:
    """One point on a throughput-vs-packet-size curve."""

    packet_size: int
    offered_gbps: float
    achieved_gbps: float
    achieved_mpps: float

    @property
    def fraction_of_offered(self) -> float:
        if self.offered_gbps == 0:
            return 0.0
        return self.achieved_gbps / self.offered_gbps
