"""Switched-Ethernet network model.

Each node owns a transmit NIC, a FIFO server reserved arithmetically
(``finish = max(now, free_at) + wire / bandwidth``), and a receive
:class:`~repro.sim.resources.Mailbox`.  A message from A to B occupies
A's NIC for its serialisation time, then arrives at B's mailbox after
the one-way latency plus the receiver's per-message CPU overhead.  The
switch fabric is non-blocking, matching the full-duplex 100 Mbps switch
of the paper's testbed, so cross traffic between other node pairs never
delays a transfer.

Senders call :meth:`Network.send` from inside a simulated process with
``yield from``; the call charges the sender-side CPU overhead and posts
the frame.  Nothing signals delivery: a frame's only effect is its
arrival in the receiver's mailbox (or the reliable transport's
delivery hook), stamped on :attr:`NetMessage.delivered_at`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional

from ..config import NetworkConfig
from ..errors import SimulationError
from .engine import Simulator
from . import trace as _trc
from .faults import FaultPlan
from .resources import Mailbox

__all__ = ["DeliveryLabel", "NetMessage", "Network"]


@dataclass(frozen=True)
class DeliveryLabel:
    """Identity of one held-back delivery under a controlled scheduler.

    ``link_seq`` numbers messages per ``(src, dst)`` link in post order;
    because the base network is FIFO per link (one NIC queue, constant
    latency), only the lowest undelivered ``link_seq`` on each link is
    *enabled*.  ``pages`` lists the page ids the payload touches (empty
    for pure control traffic) so the model checker's commutativity
    oracle can reason about data overlap.
    """

    src: int
    dst: int
    kind: str
    link_seq: int
    pages: tuple = ()


def _payload_pages(payload: Any) -> tuple:
    """Best-effort extraction of the page ids a payload refers to."""
    page = getattr(payload, "page", None)
    if isinstance(page, int):
        return (page,)
    diffs = getattr(payload, "diffs", None)
    if diffs is not None:
        try:
            return tuple(sorted({d.page for d in diffs}))
        except (AttributeError, TypeError):
            return ()
    return ()


class NetMessage:
    """One message on the wire.

    ``kind`` is a short protocol tag (``"page_req"``, ``"diff"``, ...);
    ``size`` is the modelled wire size in bytes, which the DSM layer
    computes from real payload contents so that traffic statistics are
    measured rather than assumed.  ``payload`` carries the actual Python
    data and has no timing effect beyond ``size``.

    A hand-written slotted class rather than a dataclass: one of these
    is built per protocol exchange, and the dataclass ``__init__``
    indirection showed up in the message-instantiation benchmark.
    """

    __slots__ = ("src", "dst", "kind", "payload", "size",
                 "delivered_at", "seq", "obs_eid")

    def __init__(
        self,
        src: int,
        dst: int,
        kind: str,
        payload: Any = None,
        size: int = 64,
    ):
        self.src = src
        self.dst = dst
        self.kind = kind
        self.payload = payload
        self.size = size
        #: Virtual time of the frame's first arrival at the receiver;
        #: a duplicate or retransmitted copy leaves it alone.
        self.delivered_at = -1.0
        #: Per-link sequence number stamped by the reliable transport;
        #: -1 means unsequenced (fire-and-forget traffic like heartbeats).
        self.seq = -1
        #: Causal-edge id stamped by the network when tracing is on; the
        #: server loop uses it to link handler spans to the inbound message.
        self.obs_eid = -1

    def __repr__(self) -> str:
        return (
            f"NetMessage(src={self.src}, dst={self.dst}, "
            f"kind={self.kind!r}, payload={self.payload!r}, "
            f"size={self.size})"
        )

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not NetMessage:
            return NotImplemented
        return (
            self.src == other.src
            and self.dst == other.dst
            and self.kind == other.kind
            and self.payload == other.payload
            and self.size == other.size
        )


class _Hop:
    """One frame from its sender's NIC to the receiver, as one object.

    :meth:`Network.post` schedules the hop at NIC-finish.  That first
    call puts the frame on the wire: it schedules the arrival after
    ``arrival`` seconds (wire latency + receiver overhead, + the WAN
    surcharge across zones), as a labelled choice point when ``label``
    is set (controlled scheduler), or once per entry of ``copies``, the
    extra delays the fault plan drew at post time (empty: dropped).
    Every later call is an arrival.  The engine sees schedules at the
    same two instants as the delivery model -- post time and NIC-finish
    -- so the event order is that of a NIC server plus a wire.
    """

    __slots__ = ("net", "msg", "arrival", "label", "copies")

    def __init__(self, net: "Network", msg: NetMessage, arrival: float,
                 label: Optional[DeliveryLabel],
                 copies: Optional[List[float]]):
        self.net = net
        self.msg = msg
        #: Delay to the arrival; None once the frame left the NIC.
        self.arrival: Optional[float] = arrival
        self.label = label
        self.copies = copies

    def __call__(self) -> None:
        net = self.net
        arrival = self.arrival
        if arrival is not None:  # NIC-finish
            self.arrival = None
            sim = net.sim
            copies = self.copies
            if copies is not None:
                for delay in copies:
                    sim.schedule(arrival + delay, self)
            elif self.label is None:
                sim.schedule(arrival, self)
            else:
                sim.schedule_labeled(arrival, self, self.label)
            return
        msg = self.msg
        now = net.sim.now
        if net._faulty:
            plan = net.fault_plan
            if plan.struck_dead(msg.src, msg.dst, now):
                plan.dead_discards += 1
                return
            if plan.partitions and plan.partitioned(msg.src, msg.dst, now):
                plan.partition_discards += 1
                return
        if msg.delivered_at < 0.0:
            msg.delivered_at = now
        tracer = net.tracer
        if tracer is not None and _trc.TRACING_ACTIVE and tracer.enabled:
            tracer.edge_recv(msg.obs_eid, now)
        hook = net.deliver_hook
        if hook is None or not hook(msg):
            net._mailboxes[msg.dst].put(msg)


class Network:
    """The cluster interconnect.

    Statistics are kept per node and per message kind so the harness can
    report protocol traffic exactly (bytes of diffs vs. pages vs. sync
    control traffic).
    """

    #: Wire overhead added to every message (UDP/IP + protocol header).
    HEADER_BYTES = 40

    def __init__(
        self,
        sim: Simulator,
        config: NetworkConfig,
        num_nodes: int,
        fault_plan: Optional[FaultPlan] = None,
        zones: Optional[List[int]] = None,
        wan_latency_s: float = 0.0,
    ):
        if num_nodes < 1:
            raise SimulationError("network needs at least one node")
        if zones is not None and len(zones) != num_nodes:
            raise SimulationError(
                f"zones needs one label per node, got {len(zones)} for "
                f"{num_nodes} nodes"
            )
        self.sim = sim
        self.config = config
        self.num_nodes = num_nodes
        self.fault_plan = fault_plan
        # Inactive plans must leave every stat byte-identical, so the
        # fault branch in post() is gated once here, not re-checked on
        # each frame against the plan's tables.
        self._faulty = fault_plan is not None and fault_plan.active
        #: Delivery interception point for the reliable transport; a
        #: hook returning True has consumed the frame (dedup, buffering)
        #: and keeps it out of the destination mailbox.
        self.deliver_hook: Optional[Callable[[NetMessage], bool]] = None
        #: Optional tracer (set by DsmSystem); when enabled, every post
        #: stamps a send->recv MsgEdge so runs yield a causal DAG.
        self.tracer: Optional[Any] = None
        #: Per-node instant the transmit NIC finishes its queued frames.
        self._nic_free: List[float] = [0.0] * num_nodes
        self._mailboxes = [Mailbox(sim, f"mbox{i}") for i in range(num_nodes)]
        # Per-link constants, precomputed once.  ``_extra`` is the same
        # sum post() used to form per message, so timestamps are
        # bit-identical; ``_bw`` keeps the exact ``wire / bandwidth``
        # division of ``config.transfer_time`` (a reciprocal-multiply
        # would differ in the last ulp and break byte-identity goldens).
        self._extra = config.latency_s + config.recv_overhead_s
        self._bw = config.bandwidth_bps
        # Per-zone WAN profile: a cross-zone hop pays wan_latency_s on
        # top of the LAN constants.  ``None`` (no zones, or a zero WAN
        # surcharge) keeps the scalar path bit-identical to pre-zone
        # behaviour.
        self._zone_extra: Optional[List[List[float]]] = None
        if zones is not None and wan_latency_s > 0.0:
            self._zone_extra = [
                [
                    self._extra + (wan_latency_s if zones[s] != zones[d] else 0.0)
                    for d in range(num_nodes)
                ]
                for s in range(num_nodes)
            ]
        #: Per-(src, dst) post counters backing ``DeliveryLabel.link_seq``
        #: in controlled-scheduler runs; untouched on the normal path.
        self._link_seq: Dict[tuple, int] = {}
        self.bytes_sent: List[int] = [0] * num_nodes
        self.msgs_sent: List[int] = [0] * num_nodes
        self.bytes_by_kind: Dict[str, int] = {}
        self.msgs_by_kind: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def mailbox(self, node: int) -> Mailbox:
        """The receive queue of ``node``."""
        return self._mailboxes[node]

    def send(self, msg: NetMessage) -> Generator[Any, Any, None]:
        """Transmit ``msg`` (call with ``yield from``).

        Charges the sender's per-message CPU overhead on the caller's
        timeline, then enqueues the frame on the sender NIC.  The caller
        continues as soon as the CPU overhead is paid -- sends are
        asynchronous, as in TreadMarks.
        """
        yield self.config.send_overhead_s
        self.post(msg)

    def post(self, msg: NetMessage) -> None:
        """Transmit without charging sender CPU time.

        Used by contexts that have already accounted for handler CPU
        (e.g. the asynchronous update handler, whose cost is charged as
        a lump by the protocol layer).
        """
        self._validate(msg)
        src = msg.src
        dst = msg.dst
        kind = msg.kind
        wire = msg.size + self.HEADER_BYTES
        self.bytes_sent[src] += wire
        self.msgs_sent[src] += 1
        bk = self.bytes_by_kind
        bk[kind] = bk.get(kind, 0) + wire
        mk = self.msgs_by_kind
        mk[kind] = mk.get(kind, 0) + 1
        tracer = self.tracer
        if tracer is not None and _trc.TRACING_ACTIVE and tracer.enabled:
            msg.obs_eid = tracer.edge_send(self.sim.now, src, dst, kind, wire)

        ze = self._zone_extra
        arrival = self._extra if ze is None else ze[src][dst]
        label = copies = None
        sim = self.sim
        if self._faulty:
            # RNG draws happen here, at post time, in simulator event
            # order -- the fault schedule for a seed is reproducible.
            copies = self.fault_plan.delivery_delays(src, dst, kind)  # type: ignore[union-attr]
        elif sim.choice_fn is not None:
            # Controlled scheduler (model checker): every delivery is a
            # labelled choice point.
            link = (src, dst)
            seq = self._link_seq.get(link, 0)
            self._link_seq[link] = seq + 1
            label = DeliveryLabel(src, dst, kind, seq, _payload_pages(msg.payload))
        now = sim.now
        free = self._nic_free[src]
        finish = (free if free > now else now) + wire / self._bw
        self._nic_free[src] = finish
        sim.schedule(finish - now, _Hop(self, msg, arrival, label, copies))

    def round_trip_estimate(self, request_bytes: int, reply_bytes: int) -> float:
        """Analytic lower bound for a request/reply exchange.

        Handy for tests and for the overlap accounting in CCL, which
        compares disk-flush time against the diff-flush round trip.
        """
        c = self.config
        one_way = lambda n: (  # noqa: E731 - local helper
            c.send_overhead_s
            + c.transfer_time(n + self.HEADER_BYTES)
            + c.latency_s
            + c.recv_overhead_s
        )
        return one_way(request_bytes) + one_way(reply_bytes)

    @property
    def total_bytes(self) -> int:
        """All wire bytes sent since construction."""
        return sum(self.bytes_sent)

    # ------------------------------------------------------------------
    def _validate(self, msg: NetMessage) -> None:
        n = self.num_nodes
        if not (0 <= msg.src < n and 0 <= msg.dst < n):
            raise SimulationError(f"message endpoints out of range: {msg}")
        if msg.src == msg.dst:
            raise SimulationError(f"loopback send not modelled: {msg}")
        if msg.size < 0:
            raise SimulationError(f"negative message size: {msg}")
