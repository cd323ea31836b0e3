"""Replay-free failover: promote a home replica instead of re-executing.

The classic recovery path (:mod:`repro.core.recovery`) re-executes the
failed node's program against survivor logs.  With quorum-replicated
homes (:mod:`repro.core.replication`) the crashed node's *home-side*
state already exists on its followers, so recovery becomes **failover**:

1. **detect** -- a heartbeat :class:`~repro.core.detector.FailureDetector`
   on the promotion candidate declares the primary dead;
2. **promote** -- the surviving follower with the freshest mirror claims
   the group in a fencing round (``promote_req``/``promote_ack`` to
   every survivor); the group epoch is bumped so any in-flight mirror of
   the deposed primary is rejected on arrival, and duplicate promotion
   is refused;
3. **metadata replay** -- the mirror covers the primary's home state up
   to apply-event ``upto``; the victim's durable log is scanned
   sequentially from that point and only the *suffix of coherence
   metadata* (update-event records and home-write diff records) is
   replayed onto the mirror.  Home-write diffs travel inside the scanned
   records; update-event records name ``(writer, interval, part)`` and
   the corresponding diffs are re-fetched from the writers' own logs --
   the same write-availability CCL relies on for multi-failure recovery.

No page contents are ever replayed from a checkpoint and no application
code is re-executed: the recovery-time breakdown has **no**
``page_replay`` component, by construction.  The recovered mirror must
be bit-identical (contents *and* versions) to the crash-point snapshot
of the victim's home pages; losing every follower of a group is a
*diagnosed* :class:`~repro.errors.RecoveryError`, never silence.
:func:`~repro.core.recovery.recover_victims` is the stage that picks
promotion over replay.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Sequence, Tuple

from ..config import ClusterConfig
from ..dsm.interval import VectorClock
from ..dsm.messages import LogDiffReply, LogDiffRequest, PromoteRequest
from ..dsm.system import DsmSystem
from ..errors import RecoveryError
from ..sim.network import NetMessage, Network
from ..sim.stats import NodeStats
from .detector import FailureDetector
from .failure import FailureSnapshot
from .logging_base import SCHEMES
from .logrecords import OwnDiffLogRecord, UpdateEventLogRecord
from .recovery import RecoveryWorld, check_crash, compare_page
from .replication import MirrorState
from .stablelog import StableLog

__all__ = [
    "choose_candidate",
    "compare_mirror",
    "mirror_at",
    "recover_via_failover",
]

#: Heartbeat period and tolerated misses of the promotion candidate's
#: failure detector.
DETECTOR_PERIOD_S = 5e-3
DETECTOR_MISSES_ALLOWED = 3


# ======================================================================
# pure helpers (no simulation)
# ======================================================================


def mirror_at(
    system_a: DsmSystem, primary: int, follower: int,
    at_time: Optional[float] = None,
) -> MirrorState:
    """The follower's mirror of ``primary`` as of a crash instant.

    ``at_time=None`` returns (a working copy of) the final mirror.  For
    an arbitrary instant the mirror is rebuilt from the follower's
    journal -- a mirror is a deterministic function of the initial image
    and the applied prefix, so the rebuild is exact.  Always returns a
    copy safe to mutate during recovery.
    """
    live = system_a.nodes[follower].replicator.mirrors[primary]
    st = MirrorState(primary, epoch=live.epoch)
    base = system_a.space.initial_image().reshape(-1, system_a.config.page_size)
    n = system_a.config.num_nodes
    for p in live.frames:
        st.frames[p] = base[p].copy()
        st.versions[p] = VectorClock.zero(n)
    for seal, upto, t, entries in live.journal:
        if at_time is not None and t > at_time:
            break
        st.apply_entries(entries)
        st.seal, st.upto = seal, upto
    return st


def choose_candidate(
    system_a: DsmSystem, failed_node: int, dead: Sequence[int],
    at_time: Optional[float] = None,
) -> int:
    """Deterministic promotion choice: freshest mirror, ties to lowest rank.

    Raises a *diagnosed* :class:`RecoveryError` when the group has no
    surviving follower -- the quorum is lost and failover must refuse
    rather than fabricate state.
    """
    group = system_a.replica_groups.get(failed_node)
    if group is None:
        raise RecoveryError(
            f"node {failed_node} has no replica group (replication is off); "
            "failover recovery requires replication >= 2"
        )
    candidates = group.surviving_followers(dead)
    if not candidates:
        raise RecoveryError(
            f"home group of node {failed_node} lost every replica "
            f"(followers {list(group.followers)} all dead with "
            f"{sorted(set(dead))}); quorum lost -- failover refused, "
            "restore from the durable log via classic replay instead"
        )

    def freshness(f: int) -> Tuple[int, int, int]:
        m = mirror_at(system_a, failed_node, f, at_time)
        return (-m.seal, -m.upto, f)

    return min(candidates, key=freshness)


def _covered_suffix(
    plog: StableLog, upto: int, stop_at: int
) -> Tuple[List[Any], int, int]:
    """The victim's durable metadata suffix the mirror does not cover.

    Returns ``(records, scan_bytes, covered)``: the apply-event records
    (update events, and own-diff records carrying home-write diffs)
    numbered ``upto`` onward whose interval precedes the crash seal, the
    byte count of the sequential log scan that reads them (every record
    from the first replayed one to the end of the covered region -- a
    scan cannot skip the notice/fetch records in between), and the total
    number of covered apply-events in the durable log.
    """
    events: List[Any] = []
    positions: List[int] = []
    for i, rec in enumerate(plog.persistent_records):
        if isinstance(rec, UpdateEventLogRecord) or (
            isinstance(rec, OwnDiffLogRecord) and rec.home_diffs
        ):
            events.append(rec)
            positions.append(i)
    covered = [
        (rec, pos)
        for rec, pos in zip(events, positions)
        if rec.interval < stop_at
    ]
    suffix = covered[upto:]
    if not suffix:
        return [], 0, len(covered)
    first = suffix[0][1]
    scan_bytes = sum(
        rec.nbytes
        for rec in plog.persistent_records[first:]
        if rec.interval < stop_at
    )
    return [rec for rec, _pos in suffix], scan_bytes, len(covered)


def compare_mirror(
    mirror: MirrorState,
    snapshot: FailureSnapshot,
    home_pages: Sequence[int],
    page_size: int,
) -> List[str]:
    """Bit-exact check of the recovered mirror vs the crash snapshot.

    Failover re-homes the crashed node's *home* pages; its cached remote
    copies die with it (their owners re-fault them), so only home pages
    are compared -- contents and versions both.
    """
    mismatches: List[str] = []
    for p in home_pages:
        frame = mirror.frames.get(p)
        if frame is None:
            mismatches.append(f"page {p}: missing from the mirror")
            continue
        mismatches += compare_page(p, frame, mirror.versions[p], snapshot)
    return mismatches


# ======================================================================
# the timed phase-B simulation
# ======================================================================


def _promote_responder(
    net: Network, node_id: int, replicator: Any
) -> Generator[Any, Any, None]:
    """Survivor side of the fencing round (spawned per survivor)."""
    from ..dsm.messages import PromoteAck

    mbox = net.mailbox(node_id)
    while True:
        msg = yield mbox.get(lambda m: m.kind == "promote_req")
        req = msg.payload
        ok = True
        if replicator is not None:
            ok = replicator.fence(req.primary, req.epoch)
        ack = PromoteAck(req.primary, node_id, req.epoch, ok)
        net.post(NetMessage(node_id, msg.src, "promote_ack", ack, ack.nbytes))


def recover_via_failover(
    config: ClusterConfig,
    system_a: DsmSystem,
    failed_node: int,
    plog: StableLog,
    stop_at: int,
    dead: Sequence[int] = (),
    at_time: Optional[float] = None,
) -> Tuple[int, int, MirrorState, Dict[str, float], NodeStats, int, int]:
    """Run the timed failover simulation for one crashed home.

    Returns ``(promoted, epoch, recovered_mirror, breakdown, stats,
    replayed_events, refetched_diffs)``.  ``dead`` lists every node down
    at the crash (the victim plus any zone co-victims); ``at_time``
    selects the mirror as of an arbitrary crash instant (None = the
    final mirror, the seal-aligned experiments).  Raises a diagnosed
    :class:`RecoveryError` when the victim's group lost every follower.
    """
    dead = tuple(sorted(set(dead) | {failed_node}))
    check_crash(config.num_nodes, dead, stop_at)
    promoted = choose_candidate(system_a, failed_node, dead, at_time)
    group = system_a.replica_groups[failed_node]
    mirror = mirror_at(system_a, failed_node, promoted, at_time)
    # the mirror can be *ahead* of stop_at when log flushes lag the
    # replication traffic at the crash instant: the recovered state is
    # then the (newer, still seal-consistent) mirror itself and there is
    # nothing to replay.  Behind stop_at, the durable metadata suffix
    # closes the gap.
    target_seal = max(stop_at, mirror.seal)
    suffix, scan_bytes, covered = _covered_suffix(
        plog, mirror.upto, target_seal
    )
    if mirror.seal < stop_at and covered < mirror.upto:
        # a lagging mirror whose durable log backs fewer apply-events
        # than the mirror already covers can only mean the log lost
        # records the quorum acknowledged -- diagnose, never guess
        raise RecoveryError(
            f"mirror of home {failed_node} claims {mirror.upto} "
            f"apply-events but the durable log backs only {covered} "
            f"before seal {target_seal}; the log lost records the "
            "quorum acknowledged"
        )

    # the same phase-B world replay runs in; what differs is the cost
    # model on top -- the promoted node reads its *own* warm log with
    # ``read_cached`` and awaits writer replies in arrival order, where
    # replay scans a rebooted disk and awaits per writer
    world = RecoveryWorld(config, system_a, dead)
    sim_b, net_b, disks_b = world.sim, world.net, world.disks
    stats = NodeStats(promoted)
    survivors = [i for i in range(config.num_nodes) if i not in dead]
    for s in survivors:
        if s != promoted:
            world.spawn(FailureDetector.responder_loop(net_b, s), f"hb{s}")
            world.spawn(
                _promote_responder(
                    net_b, s, getattr(system_a.nodes[s], "replicator", None)
                ),
                f"fence{s}",
            )
    detector = FailureDetector(
        sim_b, net_b, promoted,
        period_s=DETECTOR_PERIOD_S, misses_allowed=DETECTOR_MISSES_ALLOWED,
    )
    world.spawn(detector.monitor_loop(), "hb-monitor")

    counts = {"replayed": 0, "refetched": 0}
    cpu = config.cpu

    def failover_main() -> Generator[Any, Any, None]:
        mbox = net_b.mailbox(promoted)
        # -- 1. detection ----------------------------------------------
        with stats.bracket(sim_b, "detection"):
            yield detector.on_failure
        # -- 2. promotion fencing round --------------------------------
        with stats.bracket(sim_b, "promotion"):
            claim_epoch = group.epoch + 1
            fence_targets = [s for s in survivors if s != promoted]
            for s in fence_targets:
                req = PromoteRequest(failed_node, promoted, claim_epoch)
                yield from net_b.send(
                    NetMessage(promoted, s, "promote_req", req, req.nbytes)
                )
            acks = []
            while len(acks) < len(fence_targets):
                msg = yield mbox.get(lambda m: m.kind == "promote_ack")
                acks.append(msg.payload)
            if not all(a.accepted for a in acks):
                deniers = [a.follower for a in acks if not a.accepted]
                raise RecoveryError(
                    f"promotion of node {promoted} for home {failed_node} "
                    f"at epoch {claim_epoch} was fenced by {deniers}: a "
                    "newer epoch exists -- duplicate failover refused"
                )
            group.promote(promoted, dead)
            mirror.epoch = group.epoch
        # -- 3. metadata replay: scan the victim's durable log suffix --
        with stats.bracket(sim_b, "meta_replay"):
            if scan_bytes:
                # the victim's rebooted disk serves a cold sequential
                # scan, then the metadata crosses the wire to the
                # promoted node
                yield disks_b[failed_node].read_seq(scan_bytes)
                yield from net_b.send(
                    NetMessage(failed_node, promoted, "logdiff_reply",
                               LogDiffReply([]), scan_bytes)
                )
                yield mbox.get(lambda m: m.kind == "logdiff_reply")
        # -- 4. re-fetch update-event diffs from the writers' logs -----
        with stats.bracket(sim_b, "diff_refetch"):
            yield from refetch_and_apply(mbox)

    def refetch_and_apply(mbox) -> Generator[Any, Any, None]:
        wants: Dict[int, List[Tuple[int, int, int]]] = {}
        for rec in suffix:
            if isinstance(rec, UpdateEventLogRecord):
                for page in rec.pages:
                    wants.setdefault(rec.writer, []).append(
                        (page, rec.writer_index, rec.part)
                    )
        fetched: Dict[Tuple[int, int, int, int], Tuple[Any, VectorClock]] = {}
        outstanding = 0
        for writer, triples in sorted(wants.items()):
            if writer == promoted:
                # the promoted follower wrote some suffix events itself;
                # its own log is local and warm -- no network round trip
                own_log = getattr(system_a.nodes[promoted].hooks, "log", None)
                if own_log is None:
                    raise RecoveryError(
                        f"promoted node {promoted} keeps no log to serve "
                        "its own suffix diffs from"
                    )
                read_bytes = 0
                for page, idx, part in triples:
                    diff, vt = own_log.find_own_diff(page, idx, part)
                    fetched[(writer, idx, part, page)] = (diff.copy(), vt)
                    counts["refetched"] += 1
                    read_bytes += diff.nbytes
                if read_bytes:
                    yield disks_b[promoted].read_cached(read_bytes)
                continue
            req = LogDiffRequest(promoted, wants=triples)
            yield from net_b.send(
                NetMessage(promoted, writer, "logdiff_req", req, req.nbytes)
            )
            outstanding += 1
        while outstanding:
            msg = yield mbox.get(lambda m: m.kind == "logdiff_reply")
            for diff, w, idx, part, vt in msg.payload.entries:
                fetched[(w, idx, part, diff.page)] = (diff, vt)
                counts["refetched"] += 1
            outstanding -= 1
        # apply the suffix in log-append (= home-apply) order
        apply_bytes = 0
        for rec in suffix:
            if isinstance(rec, OwnDiffLogRecord):
                apply_bytes += mirror.apply_entries(
                    [(failed_node, rec.vt_index, 0, rec.vt,
                      list(rec.home_diffs))]
                )
            else:
                diffs, vt = [], None
                for page in rec.pages:
                    key = (rec.writer, rec.writer_index, rec.part, page)
                    if key not in fetched:
                        raise RecoveryError(
                            f"writer {rec.writer} served no diff for page "
                            f"{page} interval {rec.writer_index} part "
                            f"{rec.part}; its log is incomplete"
                        )
                    d, vt = fetched[key]
                    diffs.append(d)
                apply_bytes += mirror.apply_entries(
                    [(rec.writer, rec.writer_index, rec.part, vt, diffs)]
                )
            counts["replayed"] += 1
        if apply_bytes:
            yield cpu.diff_apply_per_byte_s * apply_bytes
        mirror.seal, mirror.upto = target_seal, mirror.upto + len(suffix)

    world.run({f"failover{promoted}": failover_main()})
    # the scheme's whole breakdown: there is no page-replay component
    breakdown = {
        c: stats.time.get(c) for c in SCHEMES["failover"].components
    }
    system_a.nodes[promoted].replicator.failovers += 1
    return (
        promoted, group.epoch, mirror, breakdown, stats,
        counts["replayed"], counts["refetched"],
    )
