"""ML recovery: replay entirely from the local log (paper Section 3.1).

"Recovery starts from the most recent checkpoint and generates the
execution by replaying the logged data from nonvolatile storage at each
synchronization point and at each memory miss."

The defining costs, reproduced here:

* a disk read at every synchronisation boundary for the notices and
  incoming-diff contents of the interval;
* a disk read at **every memory miss** to load the logged page copy --
  the "memory miss idle time" the paper charges against ML-recovery;
* no network traffic at all (everything was logged with contents).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Generator, List

from ..errors import RecoveryError
from ..memory.diff import apply_diff
from ..memory.page import PageState
from .logrecords import (
    IncomingDiffLogRecord,
    NoticeLogRecord,
    PageCopyLogRecord,
)
from .recovery import ReplayEngine, ReplayNode

__all__ = ["MlEngine"]


class MlEngine(ReplayEngine):
    """Materialise an ML-logged interval from the victim's own log."""

    def __init__(self) -> None:
        self._page_queues: Dict[int, Deque[PageCopyLogRecord]] = {}

    # ------------------------------------------------------------------
    def begin_interval(self, node: ReplayNode) -> Generator[Any, Any, None]:
        """One disk read for the boundary records of the new interval,
        then apply the logged incoming diff contents to home copies."""
        i = node.interval_index
        incoming = node.plog.select(IncomingDiffLogRecord, interval=i)
        nbytes = sum(
            r.nbytes
            for r in node.plog.select(NoticeLogRecord, interval=i, window=0)
        ) + sum(r.nbytes for r in incoming)
        yield from node._disk_read("log_read", nbytes)
        # stage this interval's logged page copies for fault-time reads
        self._page_queues = {}
        for rec in node.plog.select(PageCopyLogRecord, interval=i):
            self._page_queues.setdefault(rec.page, deque()).append(rec)

        cpu = node.cfg.cpu
        apply_cost = 0.0
        for rec in incoming:
            for d in rec.diffs:
                entry = node.pagetable.entry(d.page)
                if entry.home != node.id:
                    raise RecoveryError(
                        f"logged incoming diff for non-home page {d.page}"
                    )
                apply_diff(d, node.memory.page_bytes(d.page))
                assert rec.vt is not None
                node.pagetable.set_version(d.page, entry.version.merge(rec.vt))
                node.stats.count("replay_diffs_applied")
            apply_cost += cpu.diff_apply_per_byte_s * sum(
                4 * d.word_count for d in rec.diffs
            )
        yield from node._spend("diff", apply_cost)

    def read_window(
        self, node: ReplayNode, window: int, notices: List[NoticeLogRecord]
    ) -> Generator[Any, Any, None]:
        """Mid-interval acquires pay their own disk read (window > 0).

        ML never prefetches; misses are served lazily at fault time.
        """
        if window > 0:
            nbytes = sum(r.nbytes for r in notices)
            yield from node._disk_read("log_read", nbytes)

    def fault(self, node: ReplayNode, page: int) -> Generator[Any, Any, None]:
        """A memory miss: read the logged page copy from disk."""
        queue = self._page_queues.get(page)
        if not queue:
            raise RecoveryError(
                f"ML replay fault on page {page} with no logged copy "
                f"(interval {node.interval_index})"
            )
        rec = queue.popleft()
        yield from node._spend("fault", node.cfg.cpu.page_fault_s)
        yield from node._disk_read("miss_read", rec.nbytes)
        assert rec.contents is not None
        node.memory.page_bytes(page)[:] = rec.contents
        node.pagetable.set_state(page, PageState.CLEAN, "fetch")
        node.pagetable.set_version(page, rec.version)
        node.stats.count("replay_faults")
