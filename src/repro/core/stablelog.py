"""The stable-storage log: volatile buffer + flush accounting + queries.

A :class:`StableLog` separates three concerns:

* **buffering** -- protocol hooks append typed records to the volatile
  buffer as coherence events occur;
* **flushing** -- :meth:`flush_sync` (ML: synchronous, on the caller's
  critical path) and :meth:`flush_async` (CCL: returns the disk signal
  so the caller can overlap it with communication) move the buffer to
  the persistent log while charging the disk model and tallying the
  flush statistics the paper's Table 2 reports;
* **querying** -- recovery reads records back by bundle index, window
  tag, and type, and looks up a writer's logged diffs by
  ``(page, interval)``.

Persistence is *segmented*: every flush writes one
:class:`LogSegment` in the framed on-disk format of
:mod:`repro.core.logformat` (16-byte segment header + CRC-framed
records), and all byte accounting is derived from that encoding.  A
:class:`~repro.sim.faults.DiskFaultPlan` attached at construction makes
the flush path retry transient write errors with backoff and makes
:meth:`durable_view` expose torn tails -- the byte-granularity prefix
of an in-flight segment a crash leaves behind -- for the salvage scan
(:mod:`repro.core.salvage`) to decode.

Checkpoint-driven truncation (:meth:`truncate_below`) garbage-collects
segments entirely below a durable checkpoint's seal, tracking reclaimed
and live log bytes.  Truncated intervals become unqueryable (guarded
with clean errors); replay must then start from the checkpoint rather
than fast-forwarding from interval 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, List, Optional, Tuple, Type, TypeVar

from ..errors import LoggingProtocolError, StorageFaultError
from ..memory.diff import Diff
from ..dsm.interval import VectorClock
from ..sim.disk import Disk
from ..sim.events import Signal
from ..sim.faults import DiskFaultPlan
from .logformat import SEGMENT_HEADER_BYTES, encode_segment
from .logrecords import LogRecord, OwnDiffLogRecord

__all__ = ["StableLog", "LogSegment"]

R = TypeVar("R", bound=LogRecord)


@dataclass
class LogSegment:
    """One per-flush unit of the on-disk log.

    ``start``/``count`` locate the segment's records inside the
    persistent append sequence; ``nbytes`` is the exact framed size
    (segment header + framed records).  ``durable_time`` stays ``None``
    until the disk write completes -- a crash in between makes this the
    *torn candidate*.  ``sealed`` marks zero-cost injector seals;
    ``gc`` marks segments reclaimed by checkpoint-driven truncation.
    """

    seq: int
    start: int
    count: int
    nbytes: int
    interval_lo: int
    interval_hi: int
    issue_time: float
    durable_time: Optional[float] = None
    sealed: bool = False
    gc: bool = False
    records: List[LogRecord] = field(default_factory=list)
    _encoded: Optional[bytes] = field(default=None, repr=False)

    def encoded(self) -> bytes:
        """The segment's exact on-disk bytes (lazily built, cached)."""
        if self._encoded is None:
            self._encoded = encode_segment(self.seq, self.records)
        return self._encoded


class StableLog:
    """One node's log of coherence-recovery data."""

    def __init__(self, disk: Disk, node_id: int = 0,
                 faults: Optional[DiskFaultPlan] = None):
        self.disk = disk
        self.node_id = node_id
        #: Disk fault plan; ``None`` or an inert plan leaves the flush
        #: path byte-identical to the fault-free model.
        self.faults = faults
        self._volatile: List[LogRecord] = []
        #: Running framed size of ``_volatile`` (kept in lockstep so
        #: ``volatile_bytes`` is O(1) on the per-record append path).
        self._volatile_nbytes = 0
        self._persistent: List[LogRecord] = []
        #: Per-flush segments in issue order (includes gc'd ones).
        self._segments: List[LogSegment] = []
        self._next_seq = 0
        #: interval -> persistent records, so replay's per-interval
        #: queries stay O(bundle) instead of O(log) (long runs replay
        #: tens of thousands of intervals).
        self._by_interval: dict[int, List[LogRecord]] = {}
        #: vt_index -> own-diff records, for O(1) writer-side diff lookups.
        self._own_by_vtidx: dict[int, List[OwnDiffLogRecord]] = {}
        #: Durability marks: ``(persistent_count, completion_time)`` per
        #: finished flush, in completion order (the disk is FIFO).  A
        #: crash at time T leaves exactly the longest prefix whose mark
        #: time is <= T on disk -- a flush still in flight at T is lost.
        self._flush_marks: List[Tuple[int, float]] = []
        self.num_flushes = 0
        self.bytes_flushed = 0
        self.volatile_peak_bytes = 0
        self.flush_retries = 0
        #: Intervals below this are truncated: their segments are
        #: reclaimed and their index entries dropped (queries raise).
        self.truncated_below = 0
        self.reclaimed_bytes = 0
        #: Torn tail exposed by :meth:`durable_view` for the salvage
        #: scan: ``(in-flight segment, surviving byte-prefix length)``.
        self._torn: Optional[Tuple[LogSegment, int]] = None

    # ------------------------------------------------------------------
    # buffering
    # ------------------------------------------------------------------
    def append(self, record: LogRecord) -> None:
        """Buffer a record in volatile memory."""
        self._volatile.append(record)
        vb = self._volatile_nbytes + record.nbytes
        self._volatile_nbytes = vb
        if vb > self.volatile_peak_bytes:
            self.volatile_peak_bytes = vb

    @property
    def volatile_bytes(self) -> int:
        """Framed bytes currently awaiting a flush.

        A running counter: summing the buffer on every append made the
        hot logging path O(buffer) per record (quadratic per interval).
        """
        return self._volatile_nbytes

    @property
    def persistent_records(self) -> List[LogRecord]:
        """All flushed records, in append order."""
        return self._persistent

    @property
    def all_records(self) -> List[LogRecord]:
        """Persistent followed by still-volatile records, in append order.

        The recoverability auditor reads a *survivor's* log, for which
        volatile records are as good as flushed (survivors do not
        crash); actual recovery paths use :attr:`persistent_records`.
        """
        return self._persistent + self._volatile

    @property
    def live_log_bytes(self) -> int:
        """On-disk bytes not yet reclaimed by truncation."""
        return sum(s.nbytes for s in self._segments if not s.gc)

    # ------------------------------------------------------------------
    # flushing
    # ------------------------------------------------------------------
    def flush_sync(self) -> Generator[Any, Any, float]:
        """Write the volatile buffer to disk, blocking the caller.

        Returns the seconds spent waiting (0.0 when the buffer was
        empty, in which case no disk operation is issued).
        """
        nbytes = self.volatile_bytes
        if nbytes == 0:
            return 0.0
        sig = self._begin_flush(nbytes)
        t0 = self.disk.sim.now
        yield sig
        return self.disk.sim.now - t0

    def flush_async(self) -> Optional[Signal]:
        """Issue the flush and return its completion signal (or None).

        Records become queryable immediately; durability timing is the
        signal.  This is the primitive CCL overlaps with the diff-flush
        round trip.
        """
        nbytes = self.volatile_bytes
        if nbytes == 0:
            return None
        return self._begin_flush(nbytes)

    def force_seal(self) -> int:
        """Move the volatile buffer to the persistent log with no disk cost.

        Used only by the failure injector to model the paper's crash
        point -- "a certain time after the volatile logs of this
        interval are flushed" -- at which any just-arrived update events
        have also reached the disk.  Returns the number of records moved.
        """
        records = self._volatile
        n = len(records)
        if n:
            self._new_segment(records, self._volatile_nbytes, sealed=True)
        self._retire(records)
        self._flush_marks.append((len(self._persistent), self.disk.sim.now))
        return n

    def seal_records(self, records: List[LogRecord]) -> int:
        """Persist specific still-volatile records with no disk cost.

        The crash-point variant of :meth:`force_seal` used by the
        failure injector: it seals exactly the records that were
        volatile *at the crash point* (necessarily a prefix of the
        buffer -- flushes drain it whole), leaving records appended
        afterwards volatile, so a deferred seal reproduces the state a
        seal at the crash instant would have left.  Returns the number
        of records moved.
        """
        ids = {id(r) for r in records}
        sealed = [r for r in self._volatile if id(r) in ids]
        if not sealed:
            return 0
        remaining = [r for r in self._volatile if id(r) not in ids]
        self._new_segment(sealed, sum(r.nbytes for r in sealed), sealed=True)
        self._retire(sealed)
        self._volatile = remaining
        self._volatile_nbytes = sum(r.nbytes for r in remaining)
        self._flush_marks.append((len(self._persistent), self.disk.sim.now))
        return len(sealed)

    def _new_segment(self, records: List[LogRecord], framed_nbytes: int,
                     sealed: bool = False) -> LogSegment:
        """Build the segment for records about to retire (not yet moved);
        ``framed_nbytes`` is their summed ``nbytes``, which a flush knows."""
        now = self.disk.sim.now
        seg = LogSegment(
            seq=self._next_seq,
            start=len(self._persistent),
            count=len(records),
            nbytes=SEGMENT_HEADER_BYTES + framed_nbytes,
            interval_lo=min(r.interval for r in records),
            interval_hi=max(r.interval for r in records),
            issue_time=now,
            durable_time=now if sealed else None,
            sealed=sealed,
            records=list(records),
        )
        self._next_seq += 1
        self._segments.append(seg)
        return seg

    def _retire(self, records: List[LogRecord]) -> None:
        self._persistent.extend(records)
        for r in records:
            if r.interval >= self.truncated_below:
                self._by_interval.setdefault(r.interval, []).append(r)
            if isinstance(r, OwnDiffLogRecord):
                if r.vt_index >= self.truncated_below:
                    self._own_by_vtidx.setdefault(r.vt_index, []).append(r)
        if records is self._volatile:
            self._volatile = []
            self._volatile_nbytes = 0
        else:
            records.clear()

    def _begin_flush(self, nbytes: int) -> Signal:
        seg = self._new_segment(self._volatile, nbytes)
        self.num_flushes += 1
        # byte accounting is the on-disk size: segment header included
        self.bytes_flushed += seg.nbytes
        self._retire(self._volatile)
        count = len(self._persistent)
        f = self.faults.faults_for(self.node_id) if (
            self.faults is not None and self.faults.active
        ) else None
        if f is None or not f.write_error:
            # fault-free path: one write, durable at its completion; a
            # crash before that instant loses the whole flush (unless a
            # torn tail survives -- see durable_view)
            sig = self.disk.write(seg.nbytes)
            sig.add_callback(
                lambda _v, s=seg, c=count: self._mark_durable(s, c)
            )
            return sig
        done = Signal(f"log{self.node_id}.flush{seg.seq}")
        self.disk.sim.spawn(
            self._flush_with_retries(seg, count, f, done),
            name=f"log{self.node_id}.flush{seg.seq}",
        )
        return done

    def _flush_with_retries(self, seg: LogSegment, count: int, f,
                            done: Signal):
        """Flush driver under a write-error fault schedule.

        Each attempt pays the full disk write; a transient error costs
        an additional backoff (scaled by attempt) before the retry.
        Exhausting ``max_retries`` is a permanent storage failure.
        """
        attempt = 0
        while True:
            failed = self.faults.write_fails(self.node_id)
            yield self.disk.write(seg.nbytes)
            if not failed:
                break
            attempt += 1
            self.flush_retries += 1
            if attempt > f.max_retries:
                raise StorageFaultError(
                    f"node {self.node_id}: flush of segment {seg.seq} "
                    f"({seg.nbytes} bytes) failed {attempt} times"
                )
            yield f.retry_backoff_s * attempt
        self._mark_durable(seg, count)
        done.trigger(self.disk.sim.now)

    def _mark_durable(self, seg: LogSegment, count: int) -> None:
        seg.durable_time = self.disk.sim.now
        self._flush_marks.append((count, seg.durable_time))

    # ------------------------------------------------------------------
    # checkpoint-driven truncation
    # ------------------------------------------------------------------
    def truncate_below(self, interval: int) -> int:
        """Reclaim segments entirely below ``interval`` (a durable
        checkpoint's seal).

        Marks qualifying durable segments garbage, drops the index
        entries of truncated intervals, and raises the truncation
        watermark: queries below it raise cleanly instead of returning
        partial data.  The flat persistent sequence is kept (durability
        marks are count-based); replay must start from the checkpoint.
        Returns the bytes reclaimed by this call.
        """
        if interval <= self.truncated_below:
            return 0
        freed = 0
        for seg in self._segments:
            if seg.gc or seg.durable_time is None:
                continue
            if seg.interval_hi < interval:
                seg.gc = True
                freed += seg.nbytes
        self.reclaimed_bytes += freed
        for i in [i for i in self._by_interval if i < interval]:
            del self._by_interval[i]
        for i in [i for i in self._own_by_vtidx if i < interval]:
            del self._own_by_vtidx[i]
        self.truncated_below = interval
        return freed

    # ------------------------------------------------------------------
    # durability queries (the arbitrary-instant crash model)
    # ------------------------------------------------------------------
    def durable_count(self, at_time: float) -> int:
        """Records guaranteed on disk at virtual time ``at_time``.

        The durable set is always a prefix of append order: flushes
        retire the whole buffer FIFO and the disk serves FIFO, so marks
        are monotone in both fields.
        """
        count = 0
        for c, t in self._flush_marks:
            if t <= at_time and c > count:
                # not simply the last qualifying mark: a zero-cost seal
                # can certify records while an earlier flush is still in
                # flight, so counts need not be monotone in mark order
                count = c
        return count

    def first_lost_from(self, count: int) -> Optional[int]:
        """Interval tag of the earliest record beyond a durable prefix
        of ``count`` records (``None`` if nothing is lost).

        Interval tags are appended monotonically (hooks tag records
        with the node's current ``interval_index``), so every bundle
        *below* the returned tag is fully durable -- that is the
        highest seal count recovery can replay to.
        """
        rest = self._persistent[count:] + self._volatile
        if not rest:
            return None
        return min(r.interval for r in rest)

    def first_lost_interval(self, at_time: float) -> Optional[int]:
        """Interval tag of the earliest record lost by a crash at
        ``at_time`` (``None`` if every appended record was durable)."""
        return self.first_lost_from(self.durable_count(at_time))

    def durable_view(self, at_time: float) -> "StableLog":
        """A log holding exactly what a crash at ``at_time`` leaves on disk.

        The view shares the disk (recovery charges its reads there) but
        owns its own record lists; flush statistics start at zero, as a
        recovering node would observe.  Under a
        :class:`~repro.sim.faults.DiskFaultPlan` the view also exposes
        the *torn tail*: if a flush was in flight at ``at_time`` and
        the plan's pure per-segment draw says a byte prefix survived,
        ``_torn`` names the segment and the surviving length for the
        salvage scan to decode.  Latent bit rot is *not* materialised
        here -- it lives in the shared segment objects' fault draws and
        is discovered (or not) by salvage's CRC walk.
        """
        view = StableLog(self.disk, node_id=self.node_id, faults=self.faults)
        view.truncated_below = self.truncated_below
        n = self.durable_count(at_time)
        view._retire(list(self._persistent[:n]))
        view._flush_marks.append((len(view._persistent), at_time))
        # durable segments are those fully inside the durable prefix
        # (a zero-cost seal can certify an in-flight flush's records,
        # so membership is by record range, not by durable_time)
        view._segments = [
            s for s in self._segments if s.start + s.count <= n
        ]
        view._next_seq = self._next_seq
        view.reclaimed_bytes = sum(s.nbytes for s in view._segments if s.gc)
        if self.faults is not None and self.faults.active:
            for seg in self._segments:
                if (seg.start == n and not seg.sealed
                        and seg.issue_time <= at_time
                        and (seg.durable_time is None
                             or seg.durable_time > at_time)):
                    surviving = self.faults.torn_bytes(
                        self.node_id, seg.seq, seg.nbytes
                    )
                    if surviving is not None:
                        view._torn = (seg, surviving)
                    break
        return view

    # ------------------------------------------------------------------
    # recovery queries (operate on the persistent log)
    # ------------------------------------------------------------------
    def _check_live(self, interval: int) -> None:
        if interval < self.truncated_below:
            raise LoggingProtocolError(
                f"node {self.node_id}: interval {interval} was truncated "
                f"(watermark {self.truncated_below}); recovery must start "
                f"from a checkpoint at or above the watermark"
            )

    def bundle(self, interval: int) -> List[LogRecord]:
        """All persistent records of one bundle, in append order."""
        self._check_live(interval)
        return list(self._by_interval.get(interval, []))

    def bundle_bytes(self, interval: int) -> int:
        """Encoded size of one bundle (the batched recovery read)."""
        return sum(r.nbytes for r in self.bundle(interval))

    def select(
        self,
        rtype: Type[R],
        interval: Optional[int] = None,
        window: Optional[int] = None,
    ) -> List[R]:
        """Persistent records of a given type, optionally filtered."""
        if interval is not None:
            self._check_live(interval)
            pool = self._by_interval.get(interval, [])
        else:
            pool = self._persistent
        out: List[R] = []
        for r in pool:
            if not isinstance(r, rtype):
                continue
            if r.interval < self.truncated_below:
                continue
            if window is not None and r.window != window:
                continue
            out.append(r)
        return out

    def find_own_diff(
        self, page: int, vt_index: int, part: int = 0
    ) -> Tuple[Diff, VectorClock]:
        """Look up the diff this node logged for ``(page, interval, part)``.

        Serves :class:`~repro.dsm.messages.LogDiffRequest` during a
        peer's recovery.  Raises if the entry is absent, which would
        indicate a protocol bug (update events always reference diffs
        their writers logged before the event became observable) -- or,
        with a distinct message, that truncation reclaimed it.
        """
        self._check_live(vt_index)
        for r in self._own_by_vtidx.get(vt_index, []):
            found = r.find(page, part)
            if found is not None:
                d, vt = found
                assert vt is not None
                return d, vt
        raise LoggingProtocolError(
            f"no logged diff for page {page} at writer interval "
            f"{vt_index} part {part}"
        )

    def find_own_diffs_in_range(
        self, page: int, lo_index: int, hi_index: int
    ) -> List[Tuple[Diff, int, int, VectorClock]]:
        """All logged diffs for ``page`` with vt index in [lo, hi].

        Returns ``(diff, vt_index, part, vt)`` tuples across end-of-
        interval, home-write, and early flushes.  Used by delta
        reconstruction's per-writer range queries; an empty result is
        legal (the writer may not have touched the page in that span).
        Truncated indices below the watermark simply contribute nothing
        (delta reconstruction never reaches below a restored
        checkpoint's version cut).
        """
        out: List[Tuple[Diff, int, int, VectorClock]] = []
        for idx in range(lo_index, hi_index + 1):
            for r in self._own_by_vtidx.get(idx, []):
                assert r.vt is not None
                for d in r.diffs:
                    if d.page == page:
                        out.append((d, r.vt_index, 0, r.vt))
                for d in r.home_diffs:
                    if d.page == page:
                        out.append((d, r.vt_index, 0, r.vt))
                for part, d, evt in r.early:
                    if d.page == page:
                        out.append((d, r.vt_index, part, evt))
        return out

    def home_diff_history(self, page: int) -> List[Tuple[int, int]]:
        """All ``(vt_index, part)`` home-write diffs logged for ``page``.

        Lets a *failed* home's recovery responder enumerate its own
        modifications to a page from the log alone (its in-memory
        update-event history died with it).
        """
        out: List[Tuple[int, int]] = []
        for r in self._persistent:
            if isinstance(r, OwnDiffLogRecord):
                if r.vt_index < self.truncated_below:
                    continue
                for d in r.home_diffs:
                    if d.page == page:
                        out.append((r.vt_index, 0))
        return out

    def event_history(self, page: int) -> List[Tuple[int, int, int]]:
        """All ``(writer, vt_index, part)`` update events logged for ``page``.

        The log-derived replacement for a failed home's in-memory
        ``home_events`` table; entries carry no vector timestamps (event
        records are framed metadata only), so requesters must filter
        fetched diffs against their needed version client-side.
        """
        from .logrecords import UpdateEventLogRecord

        out: List[Tuple[int, int, int]] = []
        for r in self._persistent:
            if isinstance(r, UpdateEventLogRecord) and page in r.pages:
                if r.interval < self.truncated_below:
                    continue
                out.append((r.writer, r.writer_index, r.part))
        return out

    def summary(self) -> dict:
        """Flush statistics for the harness (Table 2 inputs)."""
        return {
            "flushes": self.num_flushes,
            "bytes_flushed": self.bytes_flushed,
            "records": len(self._persistent) + len(self._volatile),
            "volatile_peak_bytes": self.volatile_peak_bytes,
            "segments": len(self._segments),
            "live_log_bytes": self.live_log_bytes,
            "reclaimed_bytes": self.reclaimed_bytes,
            "flush_retries": self.flush_retries,
        }
