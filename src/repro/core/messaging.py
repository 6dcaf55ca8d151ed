"""Inter-RPU messaging (§4.4): full-packet loopback + broadcast words.

*Loopback*: a single 100 Gbps port that routes a full packet from one
RPU to another through the same distribution subsystem.  Each packet
pays a destination-header attach cost (calibrated 3 cycles — this is
the bottleneck the paper identifies at small packet sizes) on top of
line-rate serialization.

*Broadcast*: a semi-coherent memory region.  A word written to it is
eventually propagated to *all* RPUs, which observe it at the same
instant.  Each RPU has an 18-deep outbound FIFO (16 FIFO entries plus
2 PR-border registers); a round-robin arbiter grants one RPU per cycle,
so a fully contended RPU drains one message every ``n_rpus`` cycles —
the 16x18-cycle product behind the paper's saturated-latency analysis.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional

from ..packet.packet import Packet
from ..sim.clock import wire_bytes
from ..sim.kernel import Simulator
from ..sim.resources import SerialLink
from ..sim.stats import CounterSet, Histogram
from .config import RosebudConfig


class LoopbackPort:
    """The RPU-to-RPU full-packet path."""

    def __init__(
        self,
        sim: Simulator,
        config: RosebudConfig,
        on_done: Callable[[Packet], None],
    ) -> None:
        self.config = config
        self.counters = CounterSet(["frames", "bytes"])
        frames = self.counters["frames"]
        frame_bytes = self.counters["bytes"]
        period = config.clock.period_ns

        def service(packet: Packet, nbytes: int) -> float:
            serialize = wire_bytes(packet.size) * 8 / config.loopback_gbps / period
            return max(serialize, float(config.loopback_cycles))

        def done(packet: Packet) -> None:
            frames.add()
            frame_bytes.add(packet.size)
            on_done(packet)

        self.link = SerialLink(sim, "loopback", service, done)

    def send(self, packet: Packet) -> None:
        self.link.offer(packet, packet.size)


@dataclass
class BroadcastMessage:
    """One word written to the broadcast region."""

    sender: int
    address: int
    value: int
    sent_at: float = 0.0
    delivered_at: float = 0.0


class BroadcastSystem:
    """The short-message broadcast fabric.

    ``send`` models the core's store to the broadcast region: if the
    sender's FIFO is full the store blocks and is retried each cycle
    (like a stalled bus write).  A round-robin arbiter drains one
    message per cycle across RPUs; drained messages pass a final
    one-per-cycle serializer (the control-channel registers/FIFOs of
    the distribution subsystem) and after a fixed propagation delay are
    delivered to every RPU simultaneously.

    Per-RPU interrupt masks filter which addresses raise an interrupt at
    the receiver (so multi-word messages can interrupt only on the last
    word, §4.4); a receive FIFO preserves notification order.
    """

    #: propagation through the control channel (calibrated: sparse
    #: latency 72-92 ns ~= 18-23 cycles, Section 6.3)
    PROPAGATION_CYCLES = 18

    def __init__(
        self,
        sim: Simulator,
        config: RosebudConfig,
        on_deliver: Optional[Callable[[int, BroadcastMessage], None]] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.on_deliver = on_deliver
        self.latency_ns = Histogram("broadcast_latency_ns")
        self.counters = CounterSet(["sent", "delivered", "blocked_retries"])
        self._sent = self.counters["sent"]
        self._delivered = self.counters["delivered"]
        self._blocked_retries = self.counters["blocked_retries"]
        self._fifos: List[Deque[BroadcastMessage]] = [
            deque() for _ in range(config.n_rpus)
        ]
        self._rx_fifos: List[Deque[BroadcastMessage]] = [
            deque() for _ in range(config.n_rpus)
        ]
        #: per-RPU address mask: callable(address) -> bool, interrupt or not
        self.interrupt_masks: List[Callable[[int], bool]] = [
            (lambda addr: True) for _ in range(config.n_rpus)
        ]
        self._arbiter_ptr = 0
        self._arbiter_running = False

        def serial_service(msg: BroadcastMessage, nbytes: int) -> float:
            return 1.0

        self._out_serializer = SerialLink(
            sim, "bcast.serial", serial_service, self._serialized
        )

    # -- sending ----------------------------------------------------------------

    def send(
        self,
        sender: int,
        address: int,
        value: int,
        on_enqueued: Optional[Callable[[], None]] = None,
    ) -> None:
        """Core ``sender`` stores ``value`` to the broadcast region.

        The store blocks the core while the outbound FIFO is full;
        ``on_enqueued`` fires once the store retires, which is when a
        firmware send-loop would compute its *next* timestamp.
        """
        msg = BroadcastMessage(sender, address, value, sent_at=self.sim.now)
        self._attempt_enqueue(msg, on_enqueued)

    def _attempt_enqueue(
        self, msg: BroadcastMessage, on_enqueued: Optional[Callable[[], None]]
    ) -> None:
        fifo = self._fifos[msg.sender]
        if len(fifo) >= self.config.bcast_fifo_depth:
            # blocked store: retry next cycle
            self._blocked_retries.add()
            self.sim.schedule(
                1, lambda: self._attempt_enqueue(msg, on_enqueued), name="bcast_block"
            )
            return
        fifo.append(msg)
        self._sent.add()
        self._start_arbiter()
        if on_enqueued is not None:
            self.sim.schedule(1, on_enqueued, name="bcast_retired")

    # -- arbitration (one grant per cycle, RR across RPUs) ------------------------

    def _start_arbiter(self) -> None:
        if self._arbiter_running:
            return
        self._arbiter_running = True
        self.sim.schedule(1, self._arbiter_tick, name="bcast_arbiter")

    def _arbiter_tick(self) -> None:
        n = self.config.n_rpus
        granted = None
        for offset in range(n):
            idx = (self._arbiter_ptr + offset) % n
            if self._fifos[idx]:
                granted = idx
                break
        if granted is None:
            self._arbiter_running = False
            return
        self._arbiter_ptr = (granted + 1) % n
        msg = self._fifos[granted].popleft()
        self._out_serializer.offer(msg, 4)
        self.sim.schedule(1, self._arbiter_tick, name="bcast_arbiter")

    # -- delivery -------------------------------------------------------------------

    def _serialized(self, msg: BroadcastMessage) -> None:
        self.sim.schedule(
            self.PROPAGATION_CYCLES, lambda: self._deliver(msg), name="bcast_prop"
        )

    def _deliver(self, msg: BroadcastMessage) -> None:
        msg.delivered_at = self.sim.now
        latency_cycles = msg.delivered_at - msg.sent_at
        self.latency_ns.record(latency_cycles * self.config.clock.period_ns)
        self._delivered.add()
        for rpu in range(self.config.n_rpus):
            if rpu == msg.sender:
                continue
            if self.interrupt_masks[rpu](msg.address):
                self._rx_fifos[rpu].append(msg)
                if self.on_deliver is not None:
                    self.on_deliver(rpu, msg)

    # -- receiver side --------------------------------------------------------------

    def set_interrupt_mask(self, rpu: int, mask: Callable[[int], bool]) -> None:
        self.interrupt_masks[rpu] = mask

    def drain(self, rpu: int) -> List[BroadcastMessage]:
        """Pop everything pending at a receiver, in order."""
        out: List[BroadcastMessage] = []
        while True:
            msg = self.poll(rpu)
            if msg is None:
                return out
            out.append(msg)

    def poll(self, rpu: int) -> Optional[BroadcastMessage]:
        """Receiver pops the next notification, in order."""
        fifo = self._rx_fifos[rpu]
        return fifo.popleft() if fifo else None

    def pending(self, rpu: int) -> int:
        return len(self._rx_fifos[rpu])


class MessageChannel:
    """Multi-word messages over the broadcast region (§4.4).

    The paper's interrupt masking exists precisely for this pattern:
    data words go to a non-interrupting address range, and only the
    final word (written to the interrupting *doorbell* address) wakes
    the receivers, which then reassemble the payload in order.

    The address map per logical channel: words stream to
    ``data_base + i*4`` and the doorbell is ``data_base + DOORBELL``.
    """

    DOORBELL_OFFSET = 0x7C
    _WORDS_PER_MESSAGE = DOORBELL_OFFSET // 4  # payload words before doorbell

    def __init__(self, bcast: BroadcastSystem, data_base: int = 0x1000) -> None:
        self.bcast = bcast
        self.data_base = data_base
        self._rx_partial: dict = {}

    def doorbell_address(self) -> int:
        return self.data_base + self.DOORBELL_OFFSET

    def configure_receiver(self, rpu: int) -> None:
        """Mask everything but the doorbell for interrupt purposes —
        but still record data words (they carry the payload)."""
        # all channel words are recorded; interrupts conceptually fire
        # only on the doorbell.  The simulation stores all words in the
        # rx FIFO; receive() reassembles on the doorbell.
        self.bcast.set_interrupt_mask(
            rpu, lambda addr: self.data_base <= addr <= self.doorbell_address()
        )

    def send(self, sender: int, payload: bytes) -> None:
        """Send up to 31 words (124 B) of payload + a doorbell word."""
        if len(payload) > self._WORDS_PER_MESSAGE * 4:
            raise ValueError(
                f"payload exceeds one message ({self._WORDS_PER_MESSAGE * 4} bytes)"
            )
        padded = payload + b"\x00" * (-len(payload) % 4)
        for index in range(0, len(padded), 4):
            word = int.from_bytes(padded[index : index + 4], "little")
            self.bcast.send(sender, self.data_base + index, word)
        # doorbell carries the true payload length
        self.bcast.send(sender, self.doorbell_address(), len(payload))

    def receive(self, rpu: int) -> Optional[bytes]:
        """Reassemble the next complete message at a receiver."""
        words = self._rx_partial.setdefault(rpu, {})
        while True:
            msg = self.bcast.poll(rpu)
            if msg is None:
                return None
            if msg.address == self.doorbell_address():
                length = msg.value
                data = bytearray()
                for index in range(0, length + (-length % 4), 4):
                    data += words.get(self.data_base + index, 0).to_bytes(4, "little")
                words.clear()
                return bytes(data[:length])
            words[msg.address] = msg.value
