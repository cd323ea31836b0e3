"""Reliable FIFO delivery over a faulty network.

:class:`ReliableTransport` wraps a :class:`~repro.sim.network.Network`
whose :class:`~repro.sim.faults.FaultPlan` may drop, duplicate, delay,
or reorder frames, and restores the per-link guarantees the DSM protocol
was written against: every sequenced message is delivered to the
destination mailbox exactly once, in send order per ``(src, dst)`` link.
Per-writer FIFO matters beyond mere convenience -- CCL's locally-directed
delta reconstruction derives the advanced writers of a warm page from
vector-clock components, which is exact only because diff delivery is
FIFO per writer (see :class:`~repro.dsm.messages.LogDiffRequest`).

Mechanism (selective repeat): the sender stamps a per-link sequence
number, transmits, and schedules a retransmission timer on the simulated
clock with exponential backoff; the receiver acks every arrival
(including duplicates, so lost acks self-heal), drops duplicates,
buffers out-of-order frames, and releases them to the mailbox in order.
Acks and heartbeats travel unsequenced -- a lost heartbeat is precisely
the signal a failure detector exists to interpret.

All timers run on the virtual clock, so retransmission cost appears in
the timing model.  The transport is only installed when a plan is
active; fault-free runs use the bare network and are byte-identical to
runs before this layer existed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Optional, Tuple

from ..sim.engine import Simulator
from ..sim.network import NetMessage, Network
from .messages import RelAck

__all__ = ["RetransmitPolicy", "ReliableTransport", "UNSEQUENCED_KINDS"]

#: Fire-and-forget traffic that bypasses sequencing: the ack channel
#: itself (acking acks would never terminate) and heartbeats (losing
#: them is the failure signal the detector interprets).
UNSEQUENCED_KINDS = frozenset({"rel_ack", "hb_ping", "hb_ack"})


@dataclass(frozen=True)
class RetransmitPolicy:
    """Retransmission timer parameters (virtual seconds)."""

    #: Base retransmission timeout, on top of twice the frame's
    #: serialisation time (covers RTT plus moderate NIC queueing).
    timeout_s: float = 2.5e-3
    #: Multiplicative backoff applied after each retransmission.
    backoff: float = 2.0
    #: Retransmissions before the peer is presumed dead and the frame
    #: abandoned.  Bounds simulated time after a live kill; with drop
    #: rate p the residual loss probability is p**(max_retries+1).
    max_retries: int = 10

    def __post_init__(self) -> None:
        if self.timeout_s <= 0 or self.backoff < 1.0 or self.max_retries < 0:
            raise ValueError(f"bad retransmit policy {self}")


class _Pending:
    """Sender-side state for one unacknowledged sequenced frame.

    It is also the frame's retransmission timer: the engine calls it
    ``rto`` seconds after every transmission.  Timers are never
    cancelled, so an acked frame's timer still fires, as a no-op; the
    last one sets the instant :meth:`Simulator.run` ends.
    """

    __slots__ = ("transport", "msg", "rto", "retries", "acked")

    def __init__(self, transport: "ReliableTransport", msg: NetMessage,
                 rto: float):
        self.transport = transport
        self.msg = msg
        self.rto = rto
        self.retries = 0
        self.acked = False

    def __call__(self) -> None:
        if self.acked:
            return
        tr = self.transport
        policy = tr.policy
        msg = self.msg
        if self.retries >= policy.max_retries:
            # peer presumed dead; stop so the simulation can drain
            if tr._pending.pop((msg.src, msg.dst, msg.seq), None) is not None:
                tr.abandoned += 1
            return
        self.retries += 1
        self.rto *= policy.backoff
        tr.retransmits += 1
        tr.net.post(msg)
        tr.sim.schedule(self.rto, self)


class ReliableTransport:
    """Exactly-once, per-link-FIFO messaging over an unreliable network.

    Drop-in for the :class:`~repro.sim.network.Network` surface the DSM
    layer uses (``send`` / ``post`` / ``mailbox``); everything else
    delegates to the wrapped network.  One instance serves the whole
    cluster -- sender and receiver state are both keyed by link, exactly
    as per-node kernel endpoints would keep them.
    """

    def __init__(
        self,
        net: Network,
        sim: Simulator,
        policy: Optional[RetransmitPolicy] = None,
    ):
        self.net = net
        self.sim = sim
        self.policy = policy or RetransmitPolicy()
        net.deliver_hook = self._on_deliver
        self._mailboxes = [net.mailbox(i) for i in range(net.num_nodes)]
        #: link -> next sequence number to stamp (sender side).
        self._next_seq: Dict[Tuple[int, int], int] = {}
        #: link -> next sequence number to release (receiver side).
        self._expected: Dict[Tuple[int, int], int] = {}
        #: link -> {seq: frame} held-back out-of-order arrivals; a link
        #: gets its dict on its first out-of-order arrival.
        self._held: Dict[Tuple[int, int], Dict[int, NetMessage]] = {}
        #: (src, dst, seq) -> unacknowledged send state.
        self._pending: Dict[Tuple[int, int, int], _Pending] = {}
        # statistics for the chaos reports
        self.retransmits = 0
        self.acks_received = 0
        self.dups_dropped = 0
        self.held_frames = 0
        self.abandoned = 0

    # ------------------------------------------------------------------
    # sender side
    # ------------------------------------------------------------------
    def send(self, msg: NetMessage) -> Generator[Any, Any, None]:
        """Reliable counterpart of :meth:`Network.send`."""
        yield self.net.config.send_overhead_s
        self.post(msg)

    def post(self, msg: NetMessage) -> None:
        """Reliable counterpart of :meth:`Network.post`: sequence the
        frame, transmit it and start its retransmission timer
        (unsequenced kinds go straight to the network)."""
        net = self.net
        if msg.kind in UNSEQUENCED_KINDS:
            net.post(msg)
            return
        link = (msg.src, msg.dst)
        seq = self._next_seq.get(link, 0)
        self._next_seq[link] = seq + 1
        msg.seq = seq
        wire = msg.size + Network.HEADER_BYTES
        rto = self.policy.timeout_s + 2.0 * net.config.transfer_time(wire)
        entry = _Pending(self, msg, rto)
        self._pending[(msg.src, msg.dst, seq)] = entry
        net.post(msg)
        self.sim.schedule(rto, entry)

    # ------------------------------------------------------------------
    # receiver side (network delivery hook)
    # ------------------------------------------------------------------
    def _on_deliver(self, msg: NetMessage) -> bool:
        """Intercept every physical arrival; True = consumed here."""
        if msg.kind == "rel_ack":
            ack: RelAck = msg.payload
            entry = self._pending.pop((ack.src, ack.dst, ack.seq), None)
            if entry is not None:
                entry.acked = True
                self.acks_received += 1
            return True
        seq = msg.seq
        if seq < 0:
            return False  # unsequenced: straight to the mailbox
        link = (msg.src, msg.dst)
        # Ack every arrival, duplicates included: the original ack may
        # itself have been lost, and re-acking is what heals that.
        self.net.post(
            NetMessage(
                src=msg.dst,
                dst=msg.src,
                kind="rel_ack",
                payload=RelAck(msg.src, msg.dst, seq),
                size=RelAck.NBYTES,
            )
        )
        expected = self._expected.get(link, 0)
        if seq < expected:
            self.dups_dropped += 1
            return True
        held = self._held.get(link)
        if seq > expected:
            if held is None:
                held = self._held[link] = {}
            if seq in held:
                self.dups_dropped += 1
            else:
                held[seq] = msg
                self.held_frames += 1
            return True
        # in order: release it, then whatever it unblocks
        mailbox = self._mailboxes[msg.dst]
        mailbox.put(msg)
        expected += 1
        if held:
            while expected in held:
                mailbox.put(held.pop(expected))
                expected += 1
        self._expected[link] = expected
        return True

    # ------------------------------------------------------------------
    def mailbox(self, node: int):
        """The receive queue of ``node`` (same object as the network's)."""
        return self.net.mailbox(node)

    def summary(self) -> Dict[str, int]:
        """Transport-level counters for chaos reports."""
        return {
            "retransmits": self.retransmits,
            "acks_received": self.acks_received,
            "dups_dropped": self.dups_dropped,
            "held_frames": self.held_frames,
            "abandoned": self.abandoned,
            "unacked_in_flight": len(self._pending),
        }

    def __getattr__(self, name: str) -> Any:
        # num_nodes, config, round_trip_estimate, stats counters, ...
        return getattr(self.net, name)
