"""Crash-point capture.

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

from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..dsm.hlrc import HlrcNode
from ..dsm.interval import VectorClock
from ..memory.page import PageState

__all__ = ["FailureSnapshot", "CrashProbe"]


class FailureSnapshot:
    """The victim's externally-visible state at the crash point.

    :attr:`frames` holds a read-only copy of every *live* frame -- a
    valid copy or a home page, the only frames the protocol lets a node
    read -- and :attr:`page_states` the ``(state, version)`` of every
    page.  Dead frames are not kept: they carry no meaning and no
    recovery check reads them.
    """

    def __init__(self, node_id: int, base: Optional["FailureSnapshot"] = None):
        """Empty, or ``base``'s maps copied: the frames stay shared."""
        self.node_id = node_id
        #: live page -> its 1-D uint8 frame (``writeable=False``).
        self.frames: Dict[int, np.ndarray] = dict(base.frames) if base else {}
        #: page -> (state, version) at the crash point.
        self.page_states: Dict[int, Tuple[PageState, Optional[VectorClock]]] = (
            dict(base.page_states) if base else {}
        )

    def advance(self, node: HlrcNode, seal_count: int, pages: Iterable[int]) -> None:
        """Move to ``node``'s state now, re-reading only ``pages``.

        ``pages`` must name every page whose entry or frame was written
        since the snapshot last advanced (``PageTable.watchers``).
        """
        self.seal_count = seal_count
        self.time = node.sim.now
        self.vt: VectorClock = node.vt
        self.interval_index = node.interval_index
        entry_of, frame_of = node.pagetable.entry, node.memory.page_bytes
        for p in pages:
            entry = entry_of(p)
            self.page_states[p] = (entry.state, entry.version)
            if entry.state is not PageState.INVALID or entry.home == node.id:
                frame = frame_of(p).copy()
                frame.flags.writeable = False
                self.frames[p] = frame
            else:
                self.frames.pop(p, None)


class CrashProbe:
    """A probe capturing the crash-point snapshot during phase A.

    With ``at_seal`` set, the snapshot is taken exactly once; with
    ``at_seal=None`` every seal overwrites the snapshot, so after the
    run it reflects the victim's *last* interval -- the default failure
    point of the recovery experiments (a crash near the end of the run,
    where recovery has the most to replay).  ``capture_all=True``
    additionally retains every seal's snapshot in :attr:`snapshots`,
    which lets one phase-A run serve many crash instants (the chaos
    suite's amortisation).

    The first capture reads every page; from then on the probe holds a
    watch set on the victim's page table, and a seal re-reads only the
    pages that landed in it.  An overwritten snapshot advances in place,
    so :attr:`snapshot` is only meaningful once the run is over
    (``plan_victim`` is its one reader); under ``capture_all`` each seal
    advances a copy of the previous snapshot's maps, sharing every
    untouched frame, and :attr:`snapshot` is the retained ``snapshots[seal]``.

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
        #: The most recent capture and the pages written since.
        self._latest: Optional[FailureSnapshot] = None
        self._watched: set[int] = set()
        self._log = None
        self._crash_tail: List[Any] = []
        self._finalized = False

    def __call__(self, node: HlrcNode, seal_count: int) -> None:
        if node.id != self.node:
            return
        chosen = self.at_seal is None or seal_count == self.at_seal
        if not (chosen or self.capture_all):
            return
        pages: Iterable[int] = self._watched
        if self._latest is None:
            node.pagetable.watchers.append(self._watched)
            pages = range(node.pagetable.npages)
        if self._latest is None or self.capture_all:
            self._latest = FailureSnapshot(node.id, self._latest)
        self._latest.advance(node, seal_count, pages)
        self._watched.clear()
        if self.capture_all:
            self.snapshots[seal_count] = self._latest
        if not chosen:
            return
        self.snapshot = self._latest
        self._log = getattr(node.hooks, "log", None)
        if self._log is not None:
            # hold the crash interval's volatile tail itself, not its
            # ids: a record the log truncates and frees could hand its id
            # to a later one.  finalize() seals whatever of it a later
            # natural flush has not already persisted
            self._crash_tail = list(self._log._volatile)

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
        self._log.seal_records(self._crash_tail)
