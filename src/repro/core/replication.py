"""Quorum-replicated homes: replica groups, mirrors, and epoch fencing.

Every node is the *primary* home for the pages the home map assigns it.
With a replication factor ``k >= 2`` each primary gets a
:class:`ReplicaGroup` of ``k - 1`` *follower* nodes (chosen
deterministically, preferring distinct fault domains) that mirror the
primary's sealed home-side page state:

* during an interval the primary accumulates every update it applies to
  its home pages -- incoming :class:`~repro.dsm.messages.DiffBatch`
  applications and its own end-of-interval home-write diffs -- as
  *mirror entries* in home-apply order;
* at each interval seal it ships the accumulated entries to its
  followers in one :class:`~repro.dsm.messages.ReplicaUpdate`,
  piggybacked on the seal's existing flush traffic, and requires a
  **quorum** (majority of the group, primary included) of acknowledged
  copies before the *next* seal may complete -- the same one-in-flight
  pipelining the double-buffered log flush uses, so in the failure-free
  case the acks land in the shadow of the next interval's computation;
* each entry bumps a running *apply-event counter* whose value rides
  along as ``upto``.  The counter counts exactly the events CCL logs
  durably (one ``UpdateEventLogRecord`` per applied batch, one
  ``OwnDiffLogRecord`` with home diffs per sealing interval), in log
  append order -- so a promoted follower can line its mirror up against
  the primary's durable log and replay only the *metadata suffix* the
  mirror has not yet covered.  No page contents are ever replayed from
  the log: that is the replay-free failover of
  :mod:`repro.core.failover_recovery`.

**Epoch fencing**: every group carries an epoch, bumped by promotion.
Followers remember the highest epoch they have acknowledged per
primary and reject mirrors from lower epochs, so a stale primary's
in-flight updates can never corrupt a promoted replica.  Promotion is
deterministic (the surviving follower with the freshest acked mirror,
ties to the lowest rank) and refuses to run twice for one failure.

With ``replication=1`` (the default) no replicator is attached anywhere
and every code path is byte-identical to the unreplicated protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

import numpy as np

from ..dsm.interval import VectorClock
from ..dsm.messages import ReplicaAck, ReplicaUpdate
from ..errors import ConfigError, RecoveryError
from ..memory import apply_diff
from ..memory.diff import Diff
from ..sim.events import Signal

__all__ = [
    "ReplicaGroup",
    "Replicator",
    "MirrorState",
    "plan_groups",
    "validate_replication",
]

#: One mirror entry: ``(writer, interval_index, part, vt, diffs)`` --
#: exactly the identity a logged update event carries, plus contents.
MirrorEntry = Tuple[int, int, int, VectorClock, List[Diff]]


def validate_replication(replication: int, num_nodes: int) -> None:
    """Fail fast on impossible replication factors."""
    if replication < 1:
        raise ConfigError(
            f"replication factor must be >= 1, got {replication}"
        )
    if replication > num_nodes:
        raise ConfigError(
            f"replication factor {replication} exceeds the cluster of "
            f"{num_nodes} node(s)"
        )


class ReplicaGroup:
    """The replica set of one primary home, with its fencing epoch."""

    def __init__(self, primary: int, followers: Tuple[int, ...]):
        if primary in followers:
            raise ConfigError(
                f"node {primary} cannot follow its own home group"
            )
        self.primary = primary
        self.followers = followers
        #: Fencing epoch; bumped by :meth:`promote`.
        self.epoch = 0
        #: The follower promoted for the current epoch (None while the
        #: original primary is alive).
        self.promoted: Optional[int] = None

    @property
    def size(self) -> int:
        return 1 + len(self.followers)

    @property
    def quorum(self) -> int:
        """Majority of the group, primary included."""
        return self.size // 2 + 1

    @property
    def acks_needed(self) -> int:
        """Follower acks per mirror (the primary's copy counts itself)."""
        return self.quorum - 1

    def surviving_followers(self, dead) -> List[int]:
        dead = set(dead)
        return [f for f in self.followers if f not in dead]

    def promote(self, candidate: int, dead) -> int:
        """Fence the old primary and install ``candidate``; returns the
        new epoch.  Deterministic, and refuses duplicate promotion."""
        if self.promoted is not None:
            raise RecoveryError(
                f"home group of node {self.primary} already promoted "
                f"node {self.promoted} at epoch {self.epoch}; duplicate "
                f"promotion refused"
            )
        if candidate not in self.followers:
            raise RecoveryError(
                f"node {candidate} is not a follower of home "
                f"{self.primary} (followers: {list(self.followers)})"
            )
        if candidate in set(dead):
            raise RecoveryError(
                f"cannot promote dead follower {candidate} for home "
                f"{self.primary}"
            )
        self.epoch += 1
        self.promoted = candidate
        return self.epoch

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ReplicaGroup primary={self.primary} "
            f"followers={list(self.followers)} epoch={self.epoch}>"
        )


def plan_groups(
    num_nodes: int,
    replication: int,
    zones: Optional[Tuple[int, ...]] = None,
) -> Dict[int, ReplicaGroup]:
    """Deterministic replica placement for every primary.

    Followers are taken from the ring ``primary+1, primary+2, ...``,
    preferring nodes in fault domains the group does not cover yet, so a
    zone kill leaves every group a surviving replica whenever the
    cluster spans enough zones.  Placement depends only on
    ``(num_nodes, replication, zones)``.
    """
    validate_replication(replication, num_nodes)
    zone_of = (lambda i: zones[i]) if zones is not None else (lambda i: 0)
    groups: Dict[int, ReplicaGroup] = {}
    for p in range(num_nodes):
        ring = [(p + d) % num_nodes for d in range(1, num_nodes)]
        covered = {zone_of(p)}
        followers: List[int] = []
        # first pass: one follower per uncovered zone, ring order
        for f in ring:
            if len(followers) == replication - 1:
                break
            if zone_of(f) not in covered:
                covered.add(zone_of(f))
                followers.append(f)
        # second pass: fill the remainder in ring order
        for f in ring:
            if len(followers) == replication - 1:
                break
            if f not in followers:
                followers.append(f)
        groups[p] = ReplicaGroup(p, tuple(followers))
    return groups


@dataclass
class MirrorState:
    """A follower's mirror of one primary's home-side page state."""

    primary: int
    #: Highest primary epoch this follower has accepted or acked.
    epoch: int = 0
    #: Primary seal count the mirror corresponds to.
    seal: int = 0
    #: Primary apply-event count the mirror covers.
    upto: int = 0
    #: Mirrored page frames (page -> uint8 array).
    frames: Dict[int, np.ndarray] = field(default_factory=dict)
    #: Mirrored page versions (page -> VectorClock).
    versions: Dict[int, VectorClock] = field(default_factory=dict)
    #: Mirror updates accepted / rejected by epoch fencing.
    accepted: int = 0
    rejected: int = 0
    #: Applied mirrors in arrival order: ``(seal, upto, time, entries)``.
    #: Retained so the failover driver can reconstruct the mirror as of
    #: any crash instant (the entries are the same :class:`Diff` objects
    #: the primaries' logs retain, so this costs references, not copies).
    journal: List[Tuple[int, int, float, List[MirrorEntry]]] = field(
        default_factory=list
    )

    def apply_entries(self, entries: List[MirrorEntry]) -> int:
        """Apply mirror entries in home-apply order; returns diff bytes."""
        nbytes = 0
        for _writer, _idx, _part, vt, diffs in entries:
            for d in diffs:
                frame = self.frames.get(d.page)
                if frame is None:
                    raise RecoveryError(
                        f"mirror of home {self.primary} has no base frame "
                        f"for page {d.page}"
                    )
                apply_diff(d, frame)
                self.versions[d.page] = self.versions[d.page].merge(vt)
                nbytes += d.nbytes
        return nbytes


class Replicator:
    """Per-node replication endpoint (primary *and* follower sides).

    Attached to a node only when the system runs with ``replication >=
    2``; a ``None`` replicator keeps the node on the exact unreplicated
    code path.
    """

    def __init__(self, group: ReplicaGroup):
        #: The group this node is primary of.
        self.group = group
        self.node: Any = None
        # -- primary side ---------------------------------------------
        self._pending: List[MirrorEntry] = []
        #: Running apply-event counter (see module docstring).
        self.applied_seq = 0
        self._await_sig: Optional[Signal] = None
        self._await_seal = -1
        self._ack_count = 0
        self._sent_at = 0.0
        #: True once a follower rejected a mirror by epoch (stale primary).
        self.fenced = False
        # -- follower side --------------------------------------------
        #: primary id -> mirror of that primary's home pages.
        self.mirrors: Dict[int, MirrorState] = {}
        # -- statistics ------------------------------------------------
        self.mirrors_sent = 0
        self.mirror_bytes = 0
        self.quorum_waits: List[float] = []
        self.quorum_stall_s = 0.0
        #: Promotions applied onto this node (it became a primary).
        self.failovers = 0

    def bind(self, node: Any) -> None:
        self.node = node

    # -- follower-side wiring -------------------------------------------
    def init_follower(
        self,
        primary: int,
        pages,
        base_memory,
        num_nodes: int,
    ) -> None:
        """Adopt the initial image of ``primary``'s home pages.

        Called at system construction, before anything runs, with the
        primary's memory -- so the mirror base equals the primary's
        initial home-page state.
        """
        st = MirrorState(primary)
        for p in pages:
            st.frames[p] = base_memory.page_bytes(p).copy()
            st.versions[p] = VectorClock.zero(num_nodes)
        self.mirrors[primary] = st

    def apply_update(self, upd: ReplicaUpdate, now: float = 0.0) -> bool:
        """Follower side: apply one mirror, or reject it by epoch."""
        st = self.mirrors.get(upd.primary)
        if st is None:
            raise RecoveryError(
                f"node {self.node.id if self.node else '?'} is not a "
                f"follower of home {upd.primary}"
            )
        if upd.epoch < st.epoch:
            st.rejected += 1
            return False
        st.epoch = upd.epoch
        st.apply_entries(upd.entries)
        st.seal = upd.seal
        st.upto = upd.upto
        st.accepted += 1
        st.journal.append((upd.seal, upd.upto, now, upd.entries))
        return True

    def fence(self, primary: int, epoch: int) -> bool:
        """Raise the epoch floor for ``primary`` (promotion side effect).

        After fencing at ``epoch``, mirrors from lower epochs are
        rejected.  Returns False when this follower has already seen a
        higher epoch (the claim is stale).
        """
        st = self.mirrors.get(primary)
        if st is None:
            return True  # not a follower; nothing to fence
        if epoch < st.epoch:
            return False
        st.epoch = epoch
        return True

    # -- primary side: entry accumulation --------------------------------
    def record_update(self, batch: Any) -> None:
        """One incoming diff batch was applied to this node's home pages."""
        self.applied_seq += 1
        self._pending.append(
            (batch.writer, batch.interval_index, batch.part, batch.vt,
             list(batch.diffs))
        )

    def record_home_writes(
        self, home_diffs: List[Diff], vt_index: int, vt: VectorClock
    ) -> None:
        """This node's own sealed home-write diffs (part 0 of ``vt_index``)."""
        self.applied_seq += 1
        self._pending.append(
            (self.group.primary, vt_index, 0, vt, list(home_diffs))
        )

    # -- primary side: the seal-time mirror -------------------------------
    def seal_mirror(self, node: Any) -> Generator[Any, Any, None]:
        """Ship the pending mirror at an interval seal.

        The pending entries (and the apply-event counter) are captured
        **synchronously**, at the same instant the seal's failure probe
        snapshots the node -- ``HlrcNode._sealed`` runs this right after
        the probes with no yield in between -- so mirror ``s``
        is bit-identical to the home state the seal-``s`` probe sees.
        Only then does the generator absorb backpressure from the
        previous mirror (quorum acks outstanding) and post the new
        :class:`ReplicaUpdate` to every follower; updates applied during
        those yields land in the *next* seal's capture, matching the
        probe exclusion.
        """
        entries, self._pending = self._pending, []
        seal, upto = node.seal_count, self.applied_seq
        if self._await_sig is not None and not self._await_sig.triggered:
            t0 = node.sim.now
            yield self._await_sig
            dt = node.sim.now - t0
            node.stats.charge("replica_wait", dt)
            self.quorum_stall_s += dt
        if not self.group.followers:
            return
        upd = ReplicaUpdate(node.id, self.group.epoch, seal, upto, entries)
        self._await_seal = seal
        self._ack_count = 0
        self._await_sig = (
            Signal(f"n{node.id}.quorum.{seal}")
            if self.group.acks_needed > 0
            else None
        )
        self._sent_at = node.sim.now
        for f in self.group.followers:
            yield from node._send(f, "replica_update", upd)
            self.mirror_bytes += upd.nbytes
        self.mirrors_sent += 1
        node.stats.count("mirrors_sent")

    def on_ack(self, ack: ReplicaAck, now: float) -> None:
        """Primary side: count one follower ack toward the quorum."""
        if not ack.accepted:
            # a follower fenced us out: a newer epoch exists somewhere.
            # The stale primary must not count the rejection as a copy.
            self.fenced = True
            return
        if ack.epoch != self.group.epoch or ack.seal != self._await_seal:
            return  # stale or duplicate ack
        self._ack_count += 1
        if (
            self._ack_count == self.group.acks_needed
            and self._await_sig is not None
            and not self._await_sig.triggered
        ):
            self.quorum_waits.append(now - self._sent_at)
            self._await_sig.trigger(ack)

    # ---------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """Per-node replication statistics for :class:`RunResult`."""
        mirrored = {
            p: {"seal": st.seal, "upto": st.upto,
                "accepted": st.accepted, "rejected": st.rejected}
            for p, st in sorted(self.mirrors.items())
        }
        return {
            "node": self.group.primary if self.node is None else self.node.id,
            "followers": list(self.group.followers),
            "epoch": self.group.epoch,
            "mirrors_sent": self.mirrors_sent,
            "mirror_bytes": self.mirror_bytes,
            "quorum_waits": list(self.quorum_waits),
            "quorum_stall_s": self.quorum_stall_s,
            "failovers": self.failovers,
            "fenced": self.fenced,
            "mirrors": mirrored,
        }
