"""Manager-side lock state.

Each lock is statically assigned a manager node (``lock_id mod n``,
as in TreadMarks).  The manager serialises ownership: an acquire request
either receives the lock immediately or queues FIFO; a release hands the
lock to the queue head.  Grants piggyback the write-invalidation notices
the requester lacks, which is how lazy release consistency propagates
coherence information along the lock chain.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..errors import SynchronizationError
from ..obs.latency import LatencyRecorder
from ..sim import trace as _trc
from ..sim.trace import Ev
from .interval import VectorClock

__all__ = ["LockState"]

#: Manager-side event observer: ``fn(event_name, detail_dict)``.
LockEventFn = Callable[[str, dict], None]


class LockState:
    """Ownership and wait queue of one lock at its manager.

    With a ``clock`` and a ``waits`` recorder the manager also measures
    each waiter's **queue time** (enqueue to grant) into a streaming
    latency histogram, and keeps the grant-order **holder chain** --
    both feed the lock-contention report (``repro query --report
    locks``) without requiring tracing to be on.
    """

    def __init__(
        self,
        lock_id: int,
        on_event: Optional[LockEventFn] = None,
        clock: Optional[Callable[[], float]] = None,
        waits: Optional[LatencyRecorder] = None,
    ):
        self.lock_id = lock_id
        self.held = False
        self.holder: Optional[int] = None
        #: FIFO of ``(requester, requester_vt)`` waiting for the lock.
        self.queue: Deque[Tuple[int, VectorClock]] = deque()
        self.grants = 0
        #: Optional trace emitter (the coherence sanitizer's hook).
        self.on_event = on_event
        #: Virtual clock for queue-wait measurement (``lambda: sim.now``).
        self.clock = clock
        #: Queue-wait latency histogram (shared with the node's stats).
        self.waits = waits
        #: Enqueue instants of current waiters, keyed by requester.
        self._queued_at: Dict[int, float] = {}
        #: Grant order -- the lock's holder chain.
        self.holders: List[int] = []

    @property
    def _tracing(self) -> bool:
        """Whether an event's detail dict will be consumed; checked
        *before* building it, so a tracing-off run allocates nothing."""
        return _trc.TRACING_ACTIVE and self.on_event is not None

    def try_acquire(self, requester: int, vt: VectorClock) -> bool:
        """Grant immediately if free; otherwise enqueue.  Returns granted?"""
        if not self.held:
            self.held = True
            self.holder = requester
            self.grants += 1
            self.holders.append(requester)
            if self.waits is not None:
                self.waits.observe(0.0)
            if self._tracing:
                self.on_event(Ev.LOCK_GRANT, {"lock": self.lock_id,
                                              "to": requester, "queued": False})
            return True
        self.queue.append((requester, vt))
        if self.clock is not None:
            self._queued_at[requester] = self.clock()
        if self._tracing:
            self.on_event(Ev.LOCK_QUEUE,
                          {"lock": self.lock_id, "requester": requester})
        return False

    def release(self, releaser: int) -> Optional[Tuple[int, VectorClock]]:
        """Release by the holder; returns the next ``(requester, vt)`` if any.

        When a waiter exists the lock stays held and ownership moves to
        it; the caller is responsible for sending the grant.
        """
        if not self.held or self.holder != releaser:
            raise SynchronizationError(
                f"lock {self.lock_id}: release by {releaser} but holder is {self.holder}"
            )
        if self.queue:
            nxt, vt = self.queue.popleft()
            self.holder = nxt
            self.grants += 1
            self.holders.append(nxt)
            if self.clock is not None:
                t_enq = self._queued_at.pop(nxt, None)
                if t_enq is not None and self.waits is not None:
                    self.waits.observe(self.clock() - t_enq)
            if self._tracing:
                self.on_event(Ev.LOCK_GRANT, {"lock": self.lock_id,
                                              "to": nxt, "queued": True})
            return (nxt, vt)
        self.held = False
        self.holder = None
        if self._tracing:
            self.on_event(Ev.LOCK_FREE,
                          {"lock": self.lock_id, "releaser": releaser})
        return None
