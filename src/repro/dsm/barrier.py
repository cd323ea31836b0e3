"""Manager-side barrier state.

Barriers are managed by node 0 (the paper's "barrier manager").  Each
episode collects one check-in per node -- carrying the node's vector
timestamp and its new interval records -- and completes when all have
arrived.  The manager then sends each node a tailored release containing
exactly the records that node lacks.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..errors import SynchronizationError
from ..obs.latency import LatencyRecorder
from ..sim import trace as _trc
from ..sim.events import Signal
from ..sim.trace import Ev
from .interval import VectorClock

__all__ = ["BarrierState"]

#: Manager-side event observer: ``fn(event_name, detail_dict)``.
BarrierEventFn = Callable[[str, dict], None]


class BarrierState:
    """Episode bookkeeping for the barrier manager.

    A fast worker that has no work between two barriers can check in
    for episode ``E+1`` while the manager is still broadcasting episode
    ``E``'s releases, so check-ins carry an episode number and arrivals
    one episode ahead are queued until :meth:`next_episode`.

    With a ``clock`` and a ``gather`` recorder the manager measures each
    episode's *gather skew* -- first check-in to all-in -- into a
    streaming latency histogram for the phase reports.
    """

    def __init__(
        self,
        num_nodes: int,
        on_event: Optional[BarrierEventFn] = None,
        clock: Optional[Callable[[], float]] = None,
        gather: Optional[LatencyRecorder] = None,
    ):
        self.num_nodes = num_nodes
        self.episode = 0
        self._arrived: Dict[int, VectorClock] = {}
        self._pending: Dict[int, VectorClock] = {}
        self._all_in = Signal("barrier.all_in")
        #: Optional trace emitter (the coherence sanitizer's hook).
        self.on_event = on_event
        #: Virtual clock for gather-skew measurement (``lambda: sim.now``).
        self.clock = clock
        #: Gather-skew latency histogram (first check-in to all-in).
        self.gather = gather
        self._first_checkin: Optional[float] = None

    @property
    def _tracing(self) -> bool:
        """Whether an event's detail dict will be consumed; checked
        *before* building it, so a tracing-off run allocates nothing."""
        return _trc.TRACING_ACTIVE and self.on_event is not None

    def checkin(self, node: int, vt: VectorClock, episode: int) -> Signal:
        """Record an arrival for ``episode``; returns the completion signal
        of the *current* episode."""
        if episode == self.episode + 1:
            if node in self._pending:
                raise SynchronizationError(
                    f"node {node} checked in twice for future episode {episode}"
                )
            self._pending[node] = vt
            return self._all_in
        if episode != self.episode:
            raise SynchronizationError(
                f"node {node} checked in for episode {episode}; current is "
                f"{self.episode} (a node can be at most one episode ahead)"
            )
        if node in self._arrived:
            raise SynchronizationError(
                f"node {node} checked in twice for barrier episode {self.episode}"
            )
        self._arrived[node] = vt
        if self.clock is not None and self._first_checkin is None:
            self._first_checkin = self.clock()
        if self._tracing:
            self.on_event(Ev.BARRIER_CHECKIN,
                          {"node": node, "episode": self.episode,
                           "vt": list(vt.as_tuple())})
        sig = self._all_in
        if len(self._arrived) == self.num_nodes:
            if self.clock is not None and self._first_checkin is not None:
                if self.gather is not None:
                    self.gather.observe(self.clock() - self._first_checkin)
                self._first_checkin = None
            sig.trigger(self.episode)
        return sig

    @property
    def complete(self) -> bool:
        """Whether every node has checked in for the current episode."""
        return len(self._arrived) == self.num_nodes

    def participant_vts(self) -> List[Tuple[int, VectorClock]]:
        """All ``(node, vt)`` arrivals of the completed episode."""
        if not self.complete:
            raise SynchronizationError("barrier episode not complete")
        return sorted(self._arrived.items())

    def next_episode(self) -> None:
        """Advance, replaying any early arrivals for the new episode."""
        if not self.complete:
            raise SynchronizationError("cannot advance an incomplete episode")
        self.episode += 1
        self._arrived.clear()
        self._all_in = Signal(f"barrier.all_in.{self.episode}")
        pending, self._pending = self._pending, {}
        for node, vt in pending.items():
            self.checkin(node, vt, self.episode)
