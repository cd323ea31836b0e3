"""The seam between the coherence protocol and logging protocols.

The HLRC engine calls these hooks at every coherence event; a logging
protocol (NoLogging here, traditional message logging and coherence-
centric logging in :mod:`repro.core`) decides what to record and when
to touch stable storage.  Keeping the interface in the DSM layer keeps
the dependency graph acyclic: the core package builds on the DSM, never
the other way round.

What a protocol logs and when it flushes is a :class:`LogPolicy` value
the coherence layer reads off ``hooks.policy``:

* ``sync_flush`` -- traditional ML flushes its volatile log
  synchronously at the *entry* of every synchronisation operation,
  before any message is sent (the paper's Section 3.1).
* ``seal_flush`` -- CCL issues its flush right after handing diffs to
  the network (:meth:`LoggingHooks.overlapped_flush` returns the
  disk-completion signal); the release then waits for ``max(acks,
  disk)``, charging only the excess disk time to the critical path
  (Section 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator, List, Optional

import numpy as np

from ..errors import ConfigError
from ..memory.diff import Diff
from ..sim import trace as _trc
from ..sim.events import Signal
from ..sim.trace import Ev
from .interval import IntervalRecord, VectorClock
from .messages import DiffBatch

if TYPE_CHECKING:  # pragma: no cover
    from .hlrc import HlrcNode

__all__ = ["LogPolicy", "LoggingHooks", "NoLogging"]


@dataclass(frozen=True)
class LogPolicy:
    """What a logging protocol records and when it touches stable storage.

    Refuses the combinations no replay can read.  The named policies
    live with the hooks class that obeys them
    (:mod:`repro.core.policylogging`).
    """

    #: Protocol name in reports, trace details and mode-switch markers.
    name: str = "none"
    #: Log received contents -- fetched page copies and incoming diffs
    #: (ML) -- instead of fixed-size fetch records (CCL).
    contents: bool = False
    #: Log CCL's skeleton: update-event records for incoming diffs and
    #: the node's own diffs, early (mid-interval) diffs included.
    skeleton: bool = False
    #: Twin home pages and log the home-write diffs with the own diffs,
    #: so a surviving home can serve its own modifications during a
    #: peer's recovery.
    home_diffs: bool = False
    #: Keep *empty* home-write diffs in the logged/mirrored interval
    #: (failover replication: every version merge on a home page must be
    #: backed by a logged entry, even a content-free one).
    empty_home_diffs: bool = False
    #: Flush the volatile log synchronously on entering acquire/release/barrier.
    sync_flush: bool = False
    #: Issue the overlapped flush at the seal, right after the diffs.
    seal_flush: bool = False

    def __post_init__(self) -> None:
        if self.home_diffs and not self.skeleton:
            raise ConfigError(f"{self.name}: home_diffs needs skeleton "
                              "(home diffs are logged with the own diffs)")
        if self.empty_home_diffs and not self.home_diffs:
            raise ConfigError(f"{self.name}: empty_home_diffs needs home_diffs")


class LoggingHooks:
    """Base class: every hook is a no-op; subclasses override selectively."""

    def __init__(self, policy: LogPolicy = LogPolicy()):
        #: What the coherence layer twins, keeps and flushes for this node.
        self.policy = policy
        #: Human-readable protocol name used in reports.
        self.name = policy.name

    def bind(self, node: "HlrcNode") -> None:
        """Attach to the node whose events this instance will observe."""
        self.node = node

    # ------------------------------------------------------------------
    # receipt-side events (buffer in volatile memory)
    # ------------------------------------------------------------------
    def on_notices_received(
        self, records: List[IntervalRecord], window: int
    ) -> None:
        """Write-invalidation notices arrived with a grant or barrier release.

        ``window`` is the in-interval position: 0 for notices applied at
        the interval start (barrier release), ``m`` for the ``m``-th
        lock acquire of the interval.  Recovery replays notices at the
        same positions.
        """

    def on_page_fetched(
        self, page: int, contents: np.ndarray, version: VectorClock, window: int
    ) -> None:
        """A page copy arrived from its home after a fault."""

    def on_update_received(self, batch: DiffBatch) -> None:
        """Diffs from a writer were applied to this node's home copies."""

    def on_early_diff(self, diff: Diff, part: int, vt: VectorClock) -> None:
        """A dirty page was diffed and flushed *mid-interval*.

        Happens when a write-invalidation notice arriving with a lock
        grant names a page the acquirer holds dirty: the local
        modifications are diffed to the home before the copy is
        invalidated.  CCL must log these diffs (they never reappear in
        the end-of-interval diff, whose twin is gone).  ``part`` is the
        within-interval flush number (>= 1) and ``vt`` the timestamp the
        batch carried.
        """

    # ------------------------------------------------------------------
    # interval-end events
    # ------------------------------------------------------------------
    def on_interval_end(
        self,
        interval_index: int,
        vt: VectorClock,
        remote_diffs: List[Diff],
        home_diffs: List[Diff],
        record: Optional[IntervalRecord],
    ) -> None:
        """The node closed an interval (diffs created, record built)."""

    # ------------------------------------------------------------------
    # traced entry points (the coherence layer calls these; they emit a
    # LOG_* trace event, then dispatch to the overridable hook above)
    # ------------------------------------------------------------------
    def notify_notices_received(
        self, records: List[IntervalRecord], window: int
    ) -> None:
        node = self.node
        if _trc.TRACING_ACTIVE and node.system.tracer.enabled:
            node._trace(
                Ev.LOG_NOTICES,
                {
                    "protocol": self.name,
                    "window": window,
                    "records": [[r.node, r.index] for r in records],
                },
            )
        self.on_notices_received(records, window)

    def notify_page_fetched(
        self, page: int, contents: np.ndarray, version: VectorClock, window: int
    ) -> None:
        node = self.node
        if _trc.TRACING_ACTIVE and node.system.tracer.enabled:
            node._trace(
                Ev.LOG_FETCH,
                {
                    "protocol": self.name,
                    "page": page,
                    "window": window,
                    "version": list(version.as_tuple()),
                },
            )
        self.on_page_fetched(page, contents, version, window)

    def notify_update_received(self, batch: DiffBatch) -> None:
        node = self.node
        if _trc.TRACING_ACTIVE and node.system.tracer.enabled:
            node._trace(
                Ev.LOG_UPDATE,
                {
                    "protocol": self.name,
                    "writer": batch.writer,
                    "interval": batch.interval_index,
                    "part": batch.part,
                    "pages": [d.page for d in batch.diffs],
                },
            )
        self.on_update_received(batch)

    def notify_early_diff(self, diff: Diff, part: int, vt: VectorClock) -> None:
        node = self.node
        if _trc.TRACING_ACTIVE and node.system.tracer.enabled:
            node._trace(
                Ev.LOG_EARLY_DIFF,
                {
                    "protocol": self.name,
                    "page": diff.page,
                    "part": part,
                    "vt": list(vt.as_tuple()),
                },
            )
        self.on_early_diff(diff, part, vt)

    def notify_interval_end(
        self,
        interval_index: int,
        vt: VectorClock,
        remote_diffs: List[Diff],
        home_diffs: List[Diff],
        record: Optional[IntervalRecord],
    ) -> None:
        node = self.node
        if _trc.TRACING_ACTIVE and node.system.tracer.enabled:
            node._trace(
                Ev.LOG_INTERVAL,
                {
                    "protocol": self.name,
                    "interval": interval_index,
                    "vt": list(vt.as_tuple()),
                    "remote_pages": [d.page for d in remote_diffs],
                    "home_pages": [d.page for d in home_diffs],
                },
            )
        self.on_interval_end(interval_index, vt, remote_diffs, home_diffs, record)

    # ------------------------------------------------------------------
    # flush scheduling
    # ------------------------------------------------------------------
    def sync_entry_flush(self) -> Generator[Any, Any, None]:
        """Synchronous flush at sync-operation entry (``sync_flush``)."""
        return
        yield  # pragma: no cover - makes this a generator

    def overlapped_flush(self) -> Optional[Signal]:
        """Issue an asynchronous flush during release (``seal_flush``).

        Returns the disk-completion signal, or None when there is
        nothing to flush.
        """
        return None

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def log_summary(self) -> dict:
        """Per-node logging statistics for the harness tables."""
        return {"flushes": 0, "bytes_flushed": 0, "records": 0}


class NoLogging(LoggingHooks):
    """The baseline: home-based TreadMarks without any logging."""
