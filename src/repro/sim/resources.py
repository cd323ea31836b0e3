"""Shared resources: FIFO servers and mailboxes.

:class:`FifoServer` models a device that serves requests one at a time
in arrival order (a disk head; the network reserves its NICs with the
same arithmetic inline, without a completion signal per frame).  It
is implemented arithmetically -- each request completes at
``max(now, available_at) + service_time`` -- which is exact for
non-preemptive FIFO service and keeps the event count low.

:class:`Mailbox` is the per-node message queue: producers ``put``
messages, consumers obtain a :class:`~repro.sim.events.Signal` that
fires when a matching message is available.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

from ..errors import SimulationError
from .engine import Simulator
from .events import Signal

__all__ = ["FifoServer", "Mailbox"]


def _MATCH_ANY(_msg: Any) -> bool:
    """Default receive predicate: accept any message (shared, not per-call)."""
    return True


class FifoServer:
    """Non-preemptive single-server FIFO queue with additive service times.

    ``request(service_time)`` returns a signal that triggers when the
    request completes.  Utilisation statistics (:attr:`busy_time`,
    :attr:`num_requests`) support the harness's breakdown reports.
    """

    def __init__(self, sim: Simulator, name: str = "server"):
        self.sim = sim
        self.name = name
        self._available_at = 0.0
        self.busy_time = 0.0
        self.num_requests = 0

    def request(self, service_time: float) -> Signal:
        """Enqueue a request; returns its completion signal."""
        if service_time < 0:
            raise SimulationError(f"negative service time: {service_time}")
        start = max(self.sim.now, self._available_at)
        finish = start + service_time
        self._available_at = finish
        self.busy_time += service_time
        self.num_requests += 1
        sig = Signal(f"{self.name}.req{self.num_requests}")
        self.sim.schedule(finish - self.sim.now, lambda: sig.trigger(finish))
        return sig

    @property
    def backlog(self) -> float:
        """Seconds of queued work not yet completed."""
        return max(0.0, self._available_at - self.sim.now)


class Mailbox:
    """Unbounded message queue with predicate-based receive.

    Matching is FIFO among messages satisfying the predicate; waiting
    consumers are served in registration order.  This mirrors a UDP
    socket with a user-level dispatch loop, the structure TreadMarks
    uses for its request handlers.
    """

    def __init__(self, sim: Simulator, name: str = "mbox"):
        self.sim = sim
        self.name = name
        self._get_name = name + ".get"
        self._queue: Deque[Any] = deque()
        self._waiters: List[Tuple[Callable[[Any], bool], Signal]] = []
        self.delivered = 0

    def put(self, msg: Any) -> None:
        """Deliver ``msg``; wakes the first waiter whose predicate matches."""
        self.delivered += 1
        for i, (pred, sig) in enumerate(self._waiters):
            if pred(msg):
                del self._waiters[i]
                sig.trigger(msg)
                return
        self._queue.append(msg)

    def get(self, pred: Optional[Callable[[Any], bool]] = None) -> Signal:
        """Return a signal that fires with the next matching message."""
        if pred is None:
            pred = _MATCH_ANY
        for i, msg in enumerate(self._queue):
            if pred(msg):
                del self._queue[i]
                sig = Signal(self._get_name)
                sig.trigger(msg)
                return sig
        sig = Signal(self._get_name)
        self._waiters.append((pred, sig))
        return sig

    def __len__(self) -> int:
        return len(self._queue)
