"""One logging-hooks class for every protocol; a :class:`LogPolicy` decides.

Message logging (ML, the paper's Section 3.1) logs every received
coherence message **with its contents** and flushes synchronously at
the next synchronisation point.  Coherence-centric logging (CCL,
Section 3.2) logs only what survivors cannot reconstruct -- notices,
the node's own diffs, 12-byte update-event records and fixed-size fetch
records -- and overlaps its one flush per interval with HLRC's diff-ACK
round trip.  The two differ in what they log and when they flush, so
both are this class reading a frozen policy.  One conservative
extension over the paper: CCL also logs diffs of its writes to its
*own home pages* (``home_diffs``), so a surviving home serves them
during a peer's recovery instead of rolling back to a checkpoint (the
paper's worst case); :data:`CCL_PAPER` turns it off.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Generator, List, Optional, Tuple

import numpy as np

from ..dsm.interval import IntervalRecord, VectorClock
from ..dsm.logginghooks import LoggingHooks, LogPolicy
from ..dsm.messages import DiffBatch
from ..memory.diff import Diff
from ..sim.events import Signal
from .logrecords import (
    FetchLogRecord,
    IncomingDiffLogRecord,
    LogRecord,
    NoticeLogRecord,
    OwnDiffLogRecord,
    PageCopyLogRecord,
    UpdateEventLogRecord,
)
from .stablelog import StableLog

__all__ = ["PolicyLogging", "ML", "CCL", "CCL_PAPER", "CCL_NO_OVERLAP",
           "FAILOVER"]

#: Receiver-based message logging with sync-point flushes (Section 3.1).
ML = LogPolicy("ml", contents=True, sync_flush=True)
#: Log-what-cannot-be-reconstructed, flush overlapped with communication
#: (Section 3.2), plus the home-write-diff extension.
CCL = LogPolicy("ccl", skeleton=True, home_diffs=True, seal_flush=True)
#: CCL as the paper runs it, without home-write diffs: failure-free
#: only, since recovery would need the paper's home rollback.
CCL_PAPER = replace(CCL, home_diffs=False)
#: Ablation A1: CCL's log flushed synchronously at sync entry, which
#: isolates how much of CCL's advantage comes from overlap vs. log size.
CCL_NO_OVERLAP = replace(CCL, sync_flush=True, seal_flush=False)
#: CCL under quorum-replicated homes.  Content-free home writes are
#: logged and mirrored as *empty* diffs: failover reconstructs home
#: state from the mirror plus the log's metadata suffix without
#: re-executing anything, so every version merge on a home page must be
#: backed by a logged entry.
FAILOVER = replace(CCL, name="failover", empty_home_diffs=True)


class PolicyLogging(LoggingHooks):
    """Appends what :attr:`policy` asks for to a node's :class:`StableLog`."""

    def bind(self, node) -> None:
        super().bind(node)
        self.log = StableLog(node.disk, node_id=node.id,
                             faults=getattr(node.disk, "fault_plan", None))
        self._early_diffs: List[Tuple[int, Diff, VectorClock]] = []

    def _append(self, rec: LogRecord) -> None:
        self.log.append(rec)

    # ------------------------------------------------------------------
    def on_notices_received(self, records: List[IntervalRecord],
                            window: int) -> None:
        if records:
            self._append(
                NoticeLogRecord(self.node.interval_index, window, list(records))
            )

    def on_page_fetched(
        self, page: int, contents: np.ndarray, version: VectorClock, window: int
    ) -> None:
        iv = self.node.interval_index
        if self.policy.contents:
            self._append(
                PageCopyLogRecord(iv, window, page, contents.copy(), version)
            )
        else:  # metadata only -- CCL's big saving over ML
            self._append(FetchLogRecord(iv, window, page, version))

    def on_update_received(self, batch: DiffBatch) -> None:
        iv = self.node.interval_index
        if self.policy.skeleton:
            self._append(UpdateEventLogRecord(
                iv, 0, batch.writer, batch.interval_index, batch.part,
                tuple(d.page for d in batch.diffs),
            ))
        if self.policy.contents:
            self._append(IncomingDiffLogRecord(
                iv, 0, batch.writer, batch.interval_index, batch.vt,
                list(batch.diffs),
            ))

    def on_early_diff(self, diff: Diff, part: int, vt: VectorClock) -> None:
        if self.policy.skeleton:
            self._early_diffs.append((part, diff, vt))

    def on_interval_end(self, interval_index: int, vt: VectorClock,
                        remote_diffs: List[Diff], home_diffs: List[Diff],
                        record: Optional[IntervalRecord]) -> None:
        if record is None or not self.policy.skeleton:
            return
        early, self._early_diffs = self._early_diffs, []
        self._append(OwnDiffLogRecord(
            interval_index, 0, vt_index=record.index, vt=vt,
            diffs=list(remote_diffs), home_diffs=list(home_diffs), early=early,
        ))

    # ------------------------------------------------------------------
    def sync_entry_flush(self) -> Generator[Any, Any, None]:
        spent = yield from self.log.flush_sync()
        if spent:
            self.node.stats.charge("log_flush", spent)

    def overlapped_flush(self) -> Optional[Signal]:
        return self.log.flush_async() if self.policy.seal_flush else None

    def log_summary(self) -> dict:
        return self.log.summary()
