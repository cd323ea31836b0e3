"""Salvage scan and recovery planning over an imperfect on-disk log.

Recovery under a :class:`~repro.sim.faults.DiskFaultPlan` cannot trust
the crash-instant log: a flush in flight at the crash may have left a
*torn tail* (a byte prefix of its segment), and latent bit rot may have
flipped bits inside segments that were durable long before the crash.

:func:`salvage_log` walks the durable view's segments in order,
validates every frame CRC, and keeps the **longest valid prefix** of
the record sequence: replay needs a causally complete prefix, so the
first corrupt frame quarantines itself and everything after it.  A torn
tail is decoded frame-by-frame from the surviving bytes and appended --
torn-tail records are fully framed, so a crash mid-flush recovers every
record whose frame fits in the surviving prefix.

:func:`plan_recovery` then decides how far replay can go (the salvaged
log bounds the replayable seal exactly like durability marks do) and
which checkpoint to start from -- falling back to an *earlier* retained
checkpoint when quarantine or truncation leaves the log unable to cover
the replay window, or raising a diagnosed
:class:`~repro.errors.RecoveryError` naming the corrupt segment when no
retained checkpoint can bridge the damage.  Diagnosed failure is the
contract: recovery is bit-exact or it refuses loudly, never silently
wrong.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..errors import RecoveryError
from .checkpoint import Checkpointer, CheckpointSnapshot
from .logformat import decode_segment
from .stablelog import StableLog

__all__ = ["SalvageReport", "salvage_log", "plan_recovery"]


@dataclass
class SalvageReport:
    """What the salvage scan found in one node's crash-instant log."""

    node: int
    segments_scanned: int = 0
    #: Records kept: always a prefix of the original append sequence.
    salvaged_count: int = 0
    records_quarantined: int = 0
    #: Segment seq whose flush was in flight at the crash, if a byte
    #: prefix of it survived and yielded records.
    torn_segment: Optional[int] = None
    torn_records_recovered: int = 0
    #: Segment seq of the first CRC/decode failure, if any.
    corrupt_segment: Optional[int] = None
    #: Interval tag of the first quarantined record (replay bound).
    corrupt_interval: Optional[int] = None
    #: Bytes the CRC walk read (charged to the recovery breakdown).
    scan_bytes: int = 0
    detail: str = ""

    @property
    def clean(self) -> bool:
        """No corruption found (a torn tail alone still counts as clean:
        losing in-flight data is within the ideal crash model)."""
        return self.corrupt_segment is None

    def describe(self) -> str:
        parts = [
            f"node {self.node}: scanned {self.segments_scanned} segments "
            f"({self.scan_bytes} bytes), kept {self.salvaged_count} records"
        ]
        if self.torn_segment is not None:
            parts.append(
                f"torn segment {self.torn_segment}: recovered "
                f"{self.torn_records_recovered} records from the tail"
            )
        if self.corrupt_segment is not None:
            parts.append(
                f"corrupt segment {self.corrupt_segment} (interval "
                f"{self.corrupt_interval}): quarantined "
                f"{self.records_quarantined} records -- {self.detail}"
            )
        return "; ".join(parts)


def salvage_log(view: StableLog) -> Tuple[StableLog, SalvageReport]:
    """Scan a crash-instant durable view; return the trusted log.

    ``view`` comes from :meth:`StableLog.durable_view` and carries the
    crash's torn tail (if any) plus the fault plan whose pure per-
    segment draws decide latent bit rot.  The returned log holds the
    longest valid record prefix (torn-tail records included when
    nothing earlier is corrupt); the report says what was kept, what
    was quarantined, and how many bytes the scan read.
    """
    plan = view.faults
    report = SalvageReport(node=view.node_id)
    full = view.persistent_records
    valid_count = len(full)

    # ---- CRC walk over the durable segments, in issue order ----------
    for seg in view._segments:
        if seg.gc:
            continue
        report.segments_scanned += 1
        report.scan_bytes += seg.nbytes
        flip = (
            plan.bitrot_flip(view.node_id, seg.seq, seg.nbytes)
            if plan is not None and plan.active
            else None
        )
        if flip is None:
            # pristine by construction: the segment's bytes are exactly
            # encode_segment output, whose round-trip the format tests
            # pin, so the walk is charged but need not be re-executed
            continue
        data = bytearray(seg.encoded())
        off, mask = flip
        data[off] ^= mask
        recs, _consumed, err = decode_segment(bytes(data))
        if err is None and len(recs) == seg.count:
            continue  # the flip hit semantic dead space (e.g. reserved)
        cut = seg.start + len(recs)
        if cut < valid_count:
            valid_count = cut
            report.corrupt_segment = seg.seq
            report.detail = err or "record count mismatch"
            report.corrupt_interval = full[cut].interval
            break  # later segments are beyond the quarantine cut anyway

    # ---- torn tail: decode the surviving byte prefix -----------------
    tail_records = []
    torn = view._torn
    if torn is not None and valid_count == len(full):
        seg, surviving = torn
        report.scan_bytes += surviving
        recs, _consumed, _err = decode_segment(seg.encoded()[:surviving])
        tail_records = seg.records[: len(recs)]
        if tail_records:
            report.torn_segment = seg.seq
            report.torn_records_recovered = len(tail_records)

    # ---- assemble the trusted log ------------------------------------
    out = StableLog(view.disk, node_id=view.node_id, faults=view.faults)
    out.truncated_below = view.truncated_below
    out._retire(list(full[:valid_count]))
    if tail_records:
        out._retire(list(tail_records))
    mark_time = view._flush_marks[-1][1] if view._flush_marks else 0.0
    out._flush_marks.append((len(out.persistent_records), mark_time))
    report.salvaged_count = valid_count + len(tail_records)
    report.records_quarantined = len(full) - valid_count
    return out, report


def plan_recovery(
    full_log: StableLog,
    report: Optional[SalvageReport],
    seals_done: int,
    checkpointer: Optional[Checkpointer] = None,
) -> Tuple[int, int, Optional[CheckpointSnapshot]]:
    """Decide ``(stop_at, free_until, checkpoint)`` for one victim.

    ``full_log`` is the victim's complete phase-A log (used only to
    find the first interval the salvaged prefix does not cover; a
    ``report`` of None trusts all of it: a seal-aligned crash);
    ``seals_done`` is how many intervals the victim had sealed at the
    crash.  Replay stops at the earlier of the two bounds.  With a
    checkpointer, the latest retained snapshot strictly below the stop
    seal is selected -- which *is* the fall-back-one-checkpoint rule
    when quarantine lowered the stop seal.  Raises a diagnosed
    :class:`RecoveryError` when truncation or corruption leaves no way
    to cover the window.
    """
    lost = None if report is None else full_log.first_lost_from(report.salvaged_count)
    stop_at = seals_done if lost is None else min(seals_done, lost)
    watermark = full_log.truncated_below

    def _diagnosis(reason: str) -> RecoveryError:
        if report is None:
            return RecoveryError(f"node {full_log.node_id}: {reason}; "
                                 f"truncation watermark {watermark}")
        where = (
            f"corrupt segment {report.corrupt_segment} "
            f"(interval {report.corrupt_interval})"
            if report.corrupt_segment is not None
            else f"truncation watermark {watermark}"
        )
        return RecoveryError(
            f"node {report.node}: {reason}; {where}; {report.describe()}"
        )

    if stop_at < 1:
        if watermark > 0:
            raise _diagnosis(
                "salvaged log covers no interval and early segments were "
                "reclaimed by checkpoint truncation"
            )
        # nothing durable to replay: restart from the initial state
        return 0, 0, None

    snapshot: Optional[CheckpointSnapshot] = None
    free_until = 0
    if checkpointer is not None:
        snapshot = checkpointer.latest_before(stop_at - 1)
        if snapshot is not None and snapshot.seal < watermark:
            snapshot = None
        if snapshot is not None:
            free_until = snapshot.seal
    if watermark > 0 and snapshot is None:
        raise _diagnosis(
            f"no retained checkpoint at or below seal {stop_at - 1} can "
            f"anchor replay over the truncated log"
        )
    return stop_at, free_until, snapshot
