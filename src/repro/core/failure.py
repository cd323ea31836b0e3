"""Failure specification and crash-point capture.

The paper's failure model (Section 3.2, Figure 1b): a node crashes "a
certain time after the volatile logs of this interval are flushed to
the local disk, but before the next checkpoint is created".  We model
the crash point as the completion of the node's ``at_seal``-th
interval-ending synchronisation operation, at which the just-sealed log
bundle -- including any update events that raced in during the seal --
is durable (:meth:`~repro.core.stablelog.StableLog.force_seal`).

Because recovery is measured in a separate replay simulation (phase B),
the failure-free run (phase A) is never actually aborted; the
:class:`CrashProbe` records a :class:`FailureSnapshot` of the victim's
memory image, page-table state, and vector clock at the crash point,
against which the recovered state is verified bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..dsm.hlrc import HlrcNode
from ..dsm.interval import VectorClock
from ..memory.page import PageState

__all__ = ["FailureSpec", "FailureSnapshot", "CrashProbe"]


@dataclass(frozen=True)
class FailureSpec:
    """Which node crashes, and after how many sealed intervals."""

    node: int
    at_seal: int

    def __post_init__(self) -> None:
        if self.node < 0 or self.at_seal < 1:
            raise ValueError(f"bad failure spec: {self}")

    def validate(self, num_nodes: int) -> None:
        """Fail fast on a victim outside the cluster.

        Without this check a bad ``node`` only surfaces after a full
        phase-A run, as a generic "never reached seal" recovery error.
        """
        if not (0 <= self.node < num_nodes):
            raise ValueError(
                f"failure spec names node {self.node}, but the cluster has "
                f"only nodes 0..{num_nodes - 1}"
            )


class FailureSnapshot:
    """The victim's externally-visible state at the crash point."""

    def __init__(self, node: HlrcNode, seal_count: int):
        self.node_id = node.id
        self.memory: np.ndarray = np.empty_like(node.memory.buffer)
        self.refresh(node, seal_count)

    def refresh(self, node: HlrcNode, seal_count: int) -> None:
        """Overwrite with ``node``'s state now: no new image is allocated."""
        self.seal_count = seal_count
        self.time = node.sim.now
        np.copyto(self.memory, node.memory.buffer)
        self.vt: VectorClock = node.vt
        self.interval_index = node.interval_index
        #: page -> (state, version) at the crash point.
        self.page_states: Dict[int, Tuple[PageState, Optional[VectorClock]]] = (
            node.pagetable.states()
        )


class CrashProbe:
    """A probe capturing the crash-point snapshot during phase A.

    With ``at_seal`` set, the snapshot is taken exactly once; with
    ``at_seal=None`` every seal overwrites the snapshot, so after the
    run it reflects the victim's *last* interval -- the default failure
    point of the recovery experiments (a crash near the end of the run,
    where recovery has the most to replay).  ``capture_all=True``
    additionally retains every seal's snapshot in :attr:`snapshots`,
    which lets one phase-A run serve many crash instants (the chaos
    suite's amortisation).  An overwritten snapshot is refreshed in
    place, so :attr:`snapshot` is only meaningful once the run is over
    (``plan_victim`` is its one reader); under ``capture_all`` it is the
    retained ``snapshots[seal]`` itself, not a second copy.

    Observing is side-effect-free.  The paper's crash-point seal -- the
    volatile tail of the crash interval is considered flushed -- is
    applied exactly once by :meth:`finalize`, after the run, and only
    to the records that were volatile at the chosen crash point.
    """

    def __init__(
        self,
        node: int,
        at_seal: Optional[int] = None,
        capture_all: bool = False,
    ):
        self.node = node
        self.at_seal = at_seal
        self.capture_all = capture_all
        self.snapshot: Optional[FailureSnapshot] = None
        #: seal_count -> snapshot at that seal (``capture_all`` mode).
        self.snapshots: Dict[int, FailureSnapshot] = {}
        self._log = None
        self._volatile_ids: Tuple[int, ...] = ()
        self._finalized = False

    def __call__(self, node: HlrcNode, seal_count: int) -> None:
        if node.id != self.node:
            return
        if self.capture_all:
            self.snapshots[seal_count] = FailureSnapshot(node, seal_count)
        if self.at_seal is not None and seal_count != self.at_seal:
            return
        if self.capture_all:
            self.snapshot = self.snapshots[seal_count]
        elif self.snapshot is None:
            self.snapshot = FailureSnapshot(node, seal_count)
        else:
            self.snapshot.refresh(node, seal_count)
        self._log = getattr(node.hooks, "log", None)
        if self._log is not None:
            # remember the crash interval's volatile tail by identity;
            # finalize() seals whatever of it a later natural flush has
            # not already persisted
            self._volatile_ids = tuple(id(r) for r in self._log._volatile)

    def finalize(self) -> None:
        """Apply the crash point's seal effect, once, after phase A.

        Records appended *after* the crash point stay volatile -- a
        crashed node never wrote them -- and records the tail shared
        with a completed natural flush are already persistent, in which
        case this is a no-op.
        """
        if self._finalized or self._log is None or self.snapshot is None:
            return
        self._finalized = True
        ids = set(self._volatile_ids)
        chosen = [r for r in self._log._volatile if id(r) in ids]
        if chosen:
            self._log.seal_records(chosen)
