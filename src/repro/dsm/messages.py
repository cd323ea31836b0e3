"""Protocol message payloads and their wire sizes.

Every DSM exchange is a :class:`~repro.sim.network.NetMessage` whose
``payload`` is one of the dataclasses below and whose ``size`` is the
payload's :attr:`nbytes` (the network layer adds the frame header).
Sizes are computed from real contents -- diff bytes, record encodings,
page images -- so traffic statistics are measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..memory.diff import Diff
from .interval import IntervalRecord, VectorClock

__all__ = [
    "MSG_FIXED_BYTES",
    "RelAck",
    "LockRequest",
    "LockGrant",
    "LockRelease",
    "DiffBatch",
    "DiffAck",
    "PageRequest",
    "PageReply",
    "BarrierCheckin",
    "BarrierRelease",
    "LogDiffRequest",
    "LogDiffReply",
    "ReconRequest",
    "ReconPage",
    "ReconReply",
    "ReplicaUpdate",
    "ReplicaAck",
    "PromoteRequest",
    "PromoteAck",
    "records_nbytes",
]

#: Fixed per-payload metadata (kind, ids, counts).
MSG_FIXED_BYTES = 16


def records_nbytes(records: List[IntervalRecord]) -> int:
    """Encoded size of a record list."""
    return sum([r.nbytes for r in records])


@dataclass(slots=True)
class RelAck:
    """Transport-level acknowledgement of one sequenced frame.

    Names the link and sequence number of the frame being acked; sent
    by the reliable transport (see :mod:`repro.dsm.reliable`), never by
    protocol code, and itself unsequenced.
    """

    NBYTES = 12

    #: Original sender (the ack travels back to it).
    src: int
    #: Original receiver (the acker).
    dst: int
    seq: int

    @property
    def nbytes(self) -> int:
        return self.NBYTES


@dataclass(slots=True)
class LockRequest:
    """Acquire request sent to the lock's manager node."""

    lock_id: int
    requester: int
    #: The requester's applied timestamp; the grant is filtered against it.
    vt: VectorClock

    @property
    def nbytes(self) -> int:
        return MSG_FIXED_BYTES + self.vt.nbytes


@dataclass(slots=True)
class LockGrant:
    """Ownership transfer, piggybacking uncovered write-invalidation notices."""

    lock_id: int
    records: List[IntervalRecord]
    #: Join of the records' clocks, folded once by the sender: a
    #: host-side cache of what the recipient could fold from ``records``
    #: itself, so not wire content and not in ``nbytes``.
    cut: VectorClock

    @property
    def nbytes(self) -> int:
        return MSG_FIXED_BYTES + records_nbytes(self.records)


@dataclass(slots=True)
class LockRelease:
    """Release notification carrying the releaser's new interval records."""

    lock_id: int
    releaser: int
    records: List[IntervalRecord]

    @property
    def nbytes(self) -> int:
        return MSG_FIXED_BYTES + records_nbytes(self.records)


@dataclass(slots=True)
class DiffBatch:
    """All diffs one writer flushes to one home in one operation.

    ``part`` distinguishes flushes within one writer interval: 0 is the
    normal end-of-interval flush; 1, 2, ... are *early* flushes forced
    by mid-interval invalidations of dirty pages.  The triple
    ``(writer, interval_index, part)`` uniquely identifies a logged
    diff batch during recovery.
    """

    writer: int
    interval_index: int
    vt: VectorClock
    diffs: List[Diff]
    part: int = 0

    @property
    def nbytes(self) -> int:
        return MSG_FIXED_BYTES + self.vt.nbytes + sum(d.nbytes for d in self.diffs)


@dataclass(slots=True)
class DiffAck:
    """Home's acknowledgement that a diff batch has been applied."""

    writer: int
    interval_index: int
    home: int

    @property
    def nbytes(self) -> int:
        return MSG_FIXED_BYTES


@dataclass(slots=True)
class PageRequest:
    """Fault-time fetch of an up-to-date page copy from its home."""

    page: int
    requester: int

    @property
    def nbytes(self) -> int:
        return MSG_FIXED_BYTES


@dataclass(slots=True)
class PageReply:
    """Home's reply: the page image and its version timestamp."""

    page: int
    contents: np.ndarray  # uint8, one page
    version: VectorClock

    @property
    def nbytes(self) -> int:
        return MSG_FIXED_BYTES + len(self.contents) + self.version.nbytes


@dataclass(slots=True)
class BarrierCheckin:
    """Arrival at a barrier, carrying the node's new interval records.

    ``episode`` is the sender's barrier count; a fast worker may arrive
    for the next episode before the manager finishes releasing the
    current one, and the manager queues such arrivals.
    """

    barrier_id: int
    node: int
    episode: int
    vt: VectorClock
    records: List[IntervalRecord]

    @property
    def nbytes(self) -> int:
        return MSG_FIXED_BYTES + self.vt.nbytes + records_nbytes(self.records)


@dataclass(slots=True)
class BarrierRelease:
    """Manager's check-out, carrying the records the recipient lacks.

    ``records`` is the recipient's slice of the episode's one shared
    batch and ``cut`` the join of the *whole* batch's clocks; merged into
    the recipient's clock it equals the join of the slice, so like
    :attr:`LockGrant.cut` it is a host-side cache and not counted.
    """

    barrier_id: int
    records: List[IntervalRecord]
    cut: VectorClock

    @property
    def nbytes(self) -> int:
        return MSG_FIXED_BYTES + records_nbytes(self.records)


# ----------------------------------------------------------------------
# recovery-time messages
# ----------------------------------------------------------------------


@dataclass(slots=True)
class LogDiffRequest:
    """Recovery fetch of logged diffs from a surviving writer.

    ``wants`` lists exact ``(page, interval_index, part)`` triples
    recorded in the failed node's update-event metadata.  ``ranges``
    lists ``(page, lo_index, hi_index)`` queries -- "every diff you
    logged for this page in intervals lo..hi (inclusive), all parts" --
    used by locally-directed delta reconstruction: the recovering node
    derives the advanced writers of a warm page from the ``have`` and
    ``needed`` vector components, which is exact because per-writer diff
    delivery is FIFO and HLRC acknowledges diffs before a release
    completes.
    """

    requester: int
    wants: List[Tuple[int, int, int]] = field(default_factory=list)
    ranges: List[Tuple[int, int, int]] = field(default_factory=list)

    @property
    def nbytes(self) -> int:
        return MSG_FIXED_BYTES + 12 * (len(self.wants) + len(self.ranges))


@dataclass(slots=True)
class LogDiffReply:
    """Logged diffs (with their interval timestamps) read from stable storage."""

    #: ``(diff, writer, interval_index, part, vt)`` tuples; the vt is the
    #: one the batch carried on the wire.
    entries: List[Tuple[Diff, int, int, int, VectorClock]]

    @property
    def nbytes(self) -> int:
        return MSG_FIXED_BYTES + sum(
            d.nbytes + 12 + vt.nbytes for d, _w, _i, _p, vt in self.entries
        )


@dataclass(slots=True)
class ReconRequest:
    """Recovery prefetch of pages *as of* given versions, batched per home.

    The recovering node sends one request per home node per prefetch
    window ("fetches the updates ... at the beginning of each time
    interval", Section 3.2), listing every ``(page, needed_version)``
    it must reconstruct from that home.  Pages it still holds a stale
    frame of never get here: it rebuilds those locally from writer logs.
    """

    requester: int
    wants: List[Tuple[int, VectorClock]]

    @property
    def nbytes(self) -> int:
        return MSG_FIXED_BYTES + sum(4 + vt.nbytes for _p, vt in self.wants)


@dataclass(slots=True)
class ReconPage:
    """Per-page item in a :class:`ReconReply`.

    ``direct`` carries a usable page image (the home's frozen copy is
    exactly the needed version).  Otherwise the page must be rebuilt by
    applying the ``history`` diffs -- ``(writer, interval_index, part)``
    triples dominated by the needed version -- onto the home's
    ``checkpoint`` image.
    """

    page: int
    direct: Optional[np.ndarray] = None
    version: Optional[VectorClock] = None
    checkpoint: Optional[np.ndarray] = None
    history: List[Tuple[int, int, int]] = field(default_factory=list)

    @property
    def nbytes(self) -> int:
        n = 8
        if self.direct is not None:
            n += len(self.direct)
        if self.version is not None:
            n += self.version.nbytes
        if self.checkpoint is not None:
            n += len(self.checkpoint)
        n += 12 * len(self.history)
        return n


@dataclass(slots=True)
class ReconReply:
    """Home's batched answer to a :class:`ReconRequest`."""

    home: int
    items: List[ReconPage] = field(default_factory=list)

    @property
    def nbytes(self) -> int:
        return MSG_FIXED_BYTES + sum(item.nbytes for item in self.items)


# ----------------------------------------------------------------------
# home-replication messages (quorum-mirrored homes, failover recovery)
# ----------------------------------------------------------------------


@dataclass(slots=True)
class ReplicaUpdate:
    """Primary-to-follower mirror of one sealed interval's home updates.

    Sent by a replicated home at each interval seal, piggybacking on the
    seal's flush traffic.  ``entries`` replays, in home-apply order, the
    ``(writer, interval_index, part, vt, diffs)`` updates the primary
    applied to its home pages since the previous mirror; ``upto`` is the
    primary's running apply-event count after these entries, which a
    promoted follower can recount from the primary's durable log to
    resume metadata replay exactly where the mirror left off.  ``epoch``
    fences stale primaries: a follower that has acknowledged a promotion
    at a higher epoch rejects the update.
    """

    primary: int
    epoch: int
    #: Primary's seal count at capture (state version of this mirror).
    seal: int
    #: Primary's apply-event count after these entries.
    upto: int
    entries: List[Tuple[int, int, int, VectorClock, List[Diff]]]

    @property
    def nbytes(self) -> int:
        return MSG_FIXED_BYTES + sum(
            12 + vt.nbytes + sum(d.nbytes for d in diffs)
            for _w, _i, _p, vt, diffs in self.entries
        )


@dataclass(slots=True)
class ReplicaAck:
    """Follower's acknowledgement (or epoch-fenced rejection) of a mirror."""

    primary: int
    follower: int
    epoch: int
    seal: int
    accepted: bool = True

    @property
    def nbytes(self) -> int:
        return MSG_FIXED_BYTES


@dataclass(slots=True)
class PromoteRequest:
    """Failover fencing round: ``candidate`` claims ``primary``'s group.

    Broadcast to every survivor during recovery; an acked promotion
    advances the group epoch everywhere, so any in-flight mirror the
    stale primary still had queued is rejected on arrival.
    """

    primary: int
    candidate: int
    epoch: int

    @property
    def nbytes(self) -> int:
        return MSG_FIXED_BYTES


@dataclass(slots=True)
class PromoteAck:
    """Survivor's acknowledgement of a promotion claim."""

    primary: int
    follower: int
    epoch: int
    accepted: bool = True

    @property
    def nbytes(self) -> int:
        return MSG_FIXED_BYTES
