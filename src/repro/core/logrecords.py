"""Typed log records and their byte-exact sizes.

Both logging protocols append these records to a node's
:class:`~repro.core.stablelog.StableLog`.  Every record carries the
*bundle index* -- the node-local interval counter at the time the
logged event happened -- plus, where replay ordering matters inside an
interval, the *window tag* (how many lock acquires the interval had
completed when the event occurred).  Recovery replays bundle ``i`` at
the start of replay-interval ``i`` and window ``m`` records at the
``m``-th acquire, reproducing the failure-free schedule.

Sizes follow the encodings of Section 3 -- notices encode as interval
records, ML's page-copy records carry a full page image, diff records
carry the run-length-encoded diff bytes -- plus the on-disk framing of
:mod:`repro.core.logformat`: every record pays a 16-byte frame header
(type tag, flags, window, interval, payload length, payload CRC32) and
variable-width fields carry explicit counts.  ``nbytes`` is the exact
framed size; :func:`~repro.core.logformat.encode_record` asserts the
two stay in lockstep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..dsm.interval import IntervalRecord, VectorClock
from ..dsm.messages import records_nbytes
from ..memory.diff import Diff

__all__ = [
    "LogRecord",
    "NoticeLogRecord",
    "FetchLogRecord",
    "PageCopyLogRecord",
    "UpdateEventLogRecord",
    "IncomingDiffLogRecord",
    "OwnDiffLogRecord",
    "ModeSwitchLogRecord",
]

#: Frame header bytes per record: type tag (1), flags (1), window (2),
#: interval (4), payload length (4), payload CRC32 (4).
FRAME_HEADER_BYTES = 16


def _vt_nbytes(vt) -> int:
    """Encoded size of an optional vector clock: u32 count + components."""
    return 4 if vt is None else 4 + vt.nbytes


@dataclass
class LogRecord:
    """Base: every record knows its bundle index and window tag."""

    interval: int
    window: int = 0

    @property
    def nbytes(self) -> int:  # pragma: no cover - overridden
        return FRAME_HEADER_BYTES


@dataclass
class NoticeLogRecord(LogRecord):
    """Write-invalidation notices received with a grant / barrier release.

    Logged by **both** protocols (they are the skeleton of replay).
    """

    records: List[IntervalRecord] = field(default_factory=list)

    @property
    def nbytes(self) -> int:
        # u32 record count; per record its wire size (metadata + vector
        # + u32 per notice page) plus the vector's u32 length prefix
        return (FRAME_HEADER_BYTES + 4 + 4 * len(self.records)
                + records_nbytes(self.records))


@dataclass
class FetchLogRecord(LogRecord):
    """CCL: *metadata only* for a fetched page -- id and fetch-time version.

    Recovery prefetches the page and reconstructs exactly this version;
    the page contents themselves are deliberately not logged (they are
    reconstructible), which is the heart of CCL's log-size advantage.
    """

    page: int = -1
    version: Optional[VectorClock] = None

    @property
    def nbytes(self) -> int:
        return FRAME_HEADER_BYTES + 4 + _vt_nbytes(self.version)


@dataclass
class PageCopyLogRecord(LogRecord):
    """ML: the full contents of a fetched page (what makes ML logs huge)."""

    page: int = -1
    contents: Optional[np.ndarray] = None
    version: Optional[VectorClock] = None

    @property
    def nbytes(self) -> int:
        # i32 page + vector + u32 content length + contents
        n = FRAME_HEADER_BYTES + 8 + _vt_nbytes(self.version)
        if self.contents is not None:
            n += len(self.contents)
        return n


@dataclass
class UpdateEventLogRecord(LogRecord):
    """CCL: the *event* of incoming updates -- 12 bytes per page, no contents.

    ``(writer, writer_index, part)`` identifies the writer's logged diff
    batch recovery must fetch; ``pages`` lists the home pages the batch
    touched.
    """

    writer: int = -1
    writer_index: int = -1
    part: int = 0
    pages: Tuple[int, ...] = ()

    @property
    def nbytes(self) -> int:
        # (writer, writer_index, part, page count) + u32 per page
        return FRAME_HEADER_BYTES + 16 + 4 * len(self.pages)


@dataclass
class IncomingDiffLogRecord(LogRecord):
    """ML: contents of a received diff batch (applied to home copies)."""

    writer: int = -1
    writer_index: int = -1
    vt: Optional[VectorClock] = None
    diffs: List[Diff] = field(default_factory=list)

    @property
    def nbytes(self) -> int:
        # (writer, writer_index, diff count) + vector + packed diffs
        return (
            FRAME_HEADER_BYTES + 12 + _vt_nbytes(self.vt)
            + sum(d.nbytes for d in self.diffs)
        )


@dataclass
class OwnDiffLogRecord(LogRecord):
    """CCL: the diffs this node itself produced at an interval end.

    Includes the diffs flushed to remote homes *and* -- a conservative
    extension over the paper -- diffs of the node's writes to its own
    home pages, so that a surviving home can serve its own modifications
    during a peer's recovery instead of rolling back and re-executing
    (the paper's stated worst case).  ``vt_index`` is the writer-side
    interval number referenced by update-event records.
    """

    vt_index: int = -1
    vt: Optional[VectorClock] = None
    diffs: List[Diff] = field(default_factory=list)
    home_diffs: List[Diff] = field(default_factory=list)
    #: Early (mid-interval) flushes: ``(part, diff, vt_at_flush)``.
    early: List[Tuple[int, Diff, VectorClock]] = field(default_factory=list)

    @property
    def nbytes(self) -> int:
        # (vt_index, diff/home/early counts) + vector + packed diffs;
        # early entries add an i32 part tag and their flush-time vector
        return (
            FRAME_HEADER_BYTES
            + 16
            + _vt_nbytes(self.vt)
            + sum(d.nbytes for d in self.diffs)
            + sum(d.nbytes for d in self.home_diffs)
            + sum(4 + d.nbytes + _vt_nbytes(evt) for _p, d, evt in self.early)
        )

    def find(self, page: int, part: int = 0):
        """The ``(diff, vt)`` this interval's flush ``part`` produced for
        ``page``, if any (part 0 = the end-of-interval flush)."""
        if part == 0:
            for d in self.diffs:
                if d.page == page:
                    return d, self.vt
            for d in self.home_diffs:
                if d.page == page:
                    return d, self.vt
            return None
        for p, d, evt in self.early:
            if p == part and d.page == page:
                return d, evt
        return None


@dataclass
class ModeSwitchLogRecord(LogRecord):
    """Adaptive logging: the logging mode in effect from ``interval`` on.

    Appended by the adaptive protocol whenever its cost model flips
    between CCL and ML mode (and once at bind time, so every log opens
    with its starting mode).  Replay reads these records first and
    dispatches each interval segment to the matching replay engine.
    The two replay-time estimates that drove the decision are logged
    too -- they make post-mortem analysis of a switch schedule possible
    without rerunning the cost model.
    """

    mode: str = "ccl"
    prev_mode: str = ""
    est_replay_ml: float = 0.0
    est_replay_ccl: float = 0.0

    @property
    def nbytes(self) -> int:
        # u8 mode + u8 prev mode + u16 pad, then two f64 estimates
        return FRAME_HEADER_BYTES + 4 + 16
