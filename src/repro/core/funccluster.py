"""Full-Rosebud functional simulation (Appendix A.4).

The paper's testbench offers "both options of single RPU or full
Rosebud simulation, the latter being more complete but also more
time-consuming".  :class:`FunctionalCluster` is the full option over our
substrates: N instruction-set-simulated RPUs behind a load-balancing
policy, with egress collection per destination — useful for validating
LB behaviour and multi-RPU firmware interactions functionally, with
every core really executing its instructions.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..accel.base import Accelerator
from ..replay import ReplayCache, ReplayStats
from .config import RosebudConfig
from .descriptors import SlotTable
from .funcsim import FunctionalRpu, SentPacket


class ClusterError(RuntimeError):
    """Raised on cluster-level protocol problems (starvation etc.)."""


class FunctionalCluster:
    """N functional RPUs + a slot-aware round-robin/hash distribution.

    ``replay_cache=True`` attaches a per-core
    :class:`~repro.replay.ReplayCache` (one shared
    :class:`~repro.replay.ReplayStats`, available as
    ``cluster.replay_stats``) and drains packets through the
    record/replay fast path in :meth:`run_until_all_sent`.
    """

    def __init__(
        self,
        n_rpus: int,
        firmware_asm: str,
        accelerator_factory: Optional[Callable[[], Accelerator]] = None,
        config: Optional[RosebudConfig] = None,
        policy: str = "round_robin",
        cpu_backend: Optional[str] = None,
        replay_cache: bool = False,
    ) -> None:
        if policy not in ("round_robin", "hash"):
            raise ValueError(f"unknown policy {policy!r}")
        self.config = config or RosebudConfig(n_rpus=n_rpus)
        self.policy = policy
        self.replay_stats: Optional[ReplayStats] = ReplayStats() if replay_cache else None
        self.rpus: List[FunctionalRpu] = []
        for index in range(n_rpus):
            accel = accelerator_factory() if accelerator_factory else None
            rpu = FunctionalRpu(
                firmware_asm,
                accelerator=accel,
                config=self.config,
                cpu_backend=cpu_backend,
            )
            rpu.cpu.hartid = index
            if replay_cache:
                rpu.attach_replay_cache(ReplayCache(stats=self.replay_stats))
            self.rpus.append(rpu)
        self.slots = SlotTable(n_rpus, self.config.slots_per_rpu)
        self._rr_next = 0
        self._pending: Dict[int, int] = {i: 0 for i in range(n_rpus)}
        self.pushed = 0

    # -- distribution -------------------------------------------------------------

    def _choose(self, data: bytes) -> int:
        n = len(self.rpus)
        if self.policy == "hash":
            import zlib

            # hash the IP/port fields like the hash LB (bytes 26..38
            # cover src/dst IP + ports for an IPv4/TCP frame)
            return zlib.crc32(data[26:38]) % n
        for offset in range(n):
            candidate = (self._rr_next + offset) % n
            if self.slots.has_free(candidate):
                self._rr_next = (candidate + 1) % n
                return candidate
        raise ClusterError("all RPUs out of slots")

    def push_packet(self, data: bytes, port: int = 0, class_key=None) -> int:
        """Distribute one packet; returns the chosen RPU index."""
        rpu_index = self._choose(data)
        self.slots.allocate(rpu_index)
        self.rpus[rpu_index].push_packet(data, port, class_key=class_key)
        self._pending[rpu_index] += 1
        self.pushed += 1
        return rpu_index

    # -- execution ------------------------------------------------------------------

    def total_sent(self) -> int:
        return sum(len(rpu.sent) for rpu in self.rpus)

    def run_until_all_sent(self, max_instructions_per_rpu: int = 2_000_000) -> None:
        """Interleave the cores until every pushed packet was sent."""
        if self.replay_stats is not None:
            self._drain_with_replay(max_instructions_per_rpu)
            return
        target = self.pushed
        budget = {i: max_instructions_per_rpu for i in range(len(self.rpus))}
        # packets sent by earlier drains already returned their credits
        seen = {i: len(rpu.sent) for i, rpu in enumerate(self.rpus)}
        while self.total_sent() < target:
            progressed = False
            for index, rpu in enumerate(self.rpus):
                if seen[index] >= self._pending[index]:
                    continue
                if budget[index] <= 0:
                    raise ClusterError(f"RPU {index} exceeded instruction budget")
                executed = rpu.cpu.run(
                    max_instructions=min(500, budget[index]),
                    until=lambda cpu, r=rpu, i=index: len(r.sent) > seen[i],
                )
                budget[index] -= max(1, executed)
                if len(rpu.sent) > seen[index]:
                    freed = len(rpu.sent) - seen[index]
                    seen[index] = len(rpu.sent)
                    for _ in range(freed):
                        # return a slot credit (tag bookkeeping is
                        # per-RPU inside the funcsim)
                        busy = self.slots.occupancy(index)
                        if busy:
                            slot = next(iter(self.slots._busy[index]))
                            self.slots.release(index, slot)
                    progressed = True
            if not progressed and self.total_sent() < target:
                # give idle cores a chance to poll (they may be waiting
                # on descriptors already queued)
                for rpu in self.rpus:
                    rpu.cpu.run(max_instructions=50)

    def _drain_with_replay(self, max_instructions_per_rpu: int) -> None:
        """Packet-granular drain through :meth:`FunctionalRpu.step_packet`.

        Equivalent to the interleaved burst loop — brackets on distinct
        cores are independent — but each bracket either replays from
        its record or records while it executes.
        """
        outstanding = self.pushed - self.total_sent()
        budget = [max_instructions_per_rpu] * len(self.rpus)
        free = self.slots._free
        busy = self.slots._busy
        while outstanding > 0:
            progressed = False
            for index, rpu in enumerate(self.rpus):
                rx = rpu._rx
                if not rx:
                    continue
                cpu = rpu.cpu
                step = rpu.step_packet
                rpu_free = free[index]
                rpu_busy = busy[index]
                left = budget[index]
                while rx:
                    if left <= 0:
                        raise ClusterError(f"RPU {index} exceeded instruction budget")
                    before = cpu.instret
                    step(max_instructions=left)
                    left -= max(1, cpu.instret - before)
                    # each step retires exactly one descriptor: return
                    # its slot credit (tag bookkeeping is per-RPU
                    # inside the funcsim, any busy credit will do)
                    if rpu_busy:
                        rpu_free.append(rpu_busy.pop())
                    outstanding -= 1
                    progressed = True
                budget[index] = left
            if not progressed and outstanding > 0:
                raise ClusterError(
                    "cluster starved: descriptors outstanding but no RPU "
                    "has a pending RX descriptor"
                )

    # -- results ----------------------------------------------------------------------

    def sent_by_port(self) -> Dict[int, List[SentPacket]]:
        out: Dict[int, List[SentPacket]] = {}
        for rpu in self.rpus:
            for sent in rpu.sent:
                out.setdefault(sent.port, []).append(sent)
        return out

    def per_rpu_counts(self) -> List[int]:
        return [len(rpu.sent) for rpu in self.rpus]
