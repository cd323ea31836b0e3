"""Home-based lazy release consistency (HLRC).

One :class:`HlrcNode` per simulated workstation.  The node owns the
local memory image, page table, interval/vector-clock state, and the
protocol endpoints:

* a **server loop** (spawned by the system) that fields asynchronous
  requests -- page fetches, incoming diff batches, lock and barrier
  management traffic;
* **application-facing operations** (``acquire``, ``release``,
  ``barrier``, ``ensure_read``, ``ensure_write``, ``compute``) written
  as generators that the application's simulated process drives with
  ``yield from``.

Protocol summary (paper Section 2): writers flush word-level diffs of
their dirty non-home pages to each page's home at every release/barrier
and wait for acknowledgements; write-invalidation notices travel with
lock grants and barrier releases and invalidate remote copies; a fault
on an invalid page costs one round trip to the home, which always holds
an up-to-date copy.  Multiple writers of one page are merged at the home
(data-race-free programs touch disjoint words).

A pluggable :class:`~repro.dsm.logginghooks.LoggingHooks` instance
observes every coherence event; the logging protocols of the paper are
implemented purely in terms of those hooks.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING, Any, Callable, Dict, Generator, List, Optional, Tuple

from ..errors import ProtocolError
from ..memory import LocalMemory, PageState, PageTable, create_diff, apply_diff
from ..memory.diff import Diff
from ..sim.events import AllOf, Signal
from ..sim.network import NetMessage
from ..sim.stats import NodeStats
from ..sim import trace as _trc
from ..sim.trace import Ev
from .barrier import BarrierState
from .interval import IntervalRecord, IntervalTable, NoticeBatch, VectorClock, cut_of
from .locks import LockState
from .logginghooks import LoggingHooks, NoLogging
from .messages import (
    BarrierCheckin,
    BarrierRelease,
    DiffAck,
    DiffBatch,
    LockGrant,
    LockRelease,
    LockRequest,
    PageRequest,
    PageReply,
    ReplicaAck,
    ReplicaUpdate,
)

if TYPE_CHECKING:  # pragma: no cover
    from .system import DsmSystem

__all__ = ["HlrcNode", "PageAccess"]

#: Callback signature for the failure-point probe:
#: ``probe(node, seal_count)`` fires right after a node seals (flushes)
#: the log bundle of a completed interval -- the paper's crash point.
ProbeFn = Callable[["HlrcNode", int], None]


class PageAccess:
    """The node-local coherence code a running and a replaying node share.

    Page access (:meth:`ensure_read`, :meth:`ensure_write`), the seal's
    per-page transitions (:meth:`_seal_pages`) and the pages a notice
    batch invalidates (:meth:`_noticed_pages`), for :class:`HlrcNode` in
    phase A and :class:`~repro.core.recovery.ReplayNode` in phase B.
    Two hooks tell them apart: ``_fault_fetch(page)`` serves a miss, and
    :attr:`_twin_charge` charges a twin copy's CPU time.
    """

    #: Replay skips access while it fast-forwards to a checkpoint image.
    restoring = False
    #: ``(category, seconds)`` -> generator charging a twin copy; None
    #: yields the time uncharged (phase A).
    _twin_charge: Optional[Callable[[str, float], Any]] = None
    #: Diff dirty pages at the seal and keep home update histories
    #: (phase A; a replayed interval's diffs are at their homes already).
    seal_diffs = True

    # ==================================================================
    # page access (explicit annotations standing in for VM traps)
    # ==================================================================
    def ensure_read(self, pages) -> Generator[Any, Any, None]:
        """Make every page readable, faulting in invalid ones."""
        if self.restoring:
            return
        for p in pages:
            entry = self.pagetable.entry(p)
            if entry.state is PageState.INVALID and entry.home != self.id:
                yield from self._fault_fetch(p)

    def ensure_write(self, pages) -> Generator[Any, Any, None]:
        """Make every page writable: fetch if invalid, twin on first write."""
        if self.restoring:
            return
        twin_s = self.cfg.cpu.twin_copy_per_byte_s * self.cfg.page_size
        charge = self._twin_charge
        for p in pages:
            entry = self.pagetable.entry(p)
            if entry.home == self.id:
                if self.hooks.policy.home_diffs and entry.twin is None:
                    yield twin_s
                    self.pagetable.make_twin(p, self.memory.page_bytes(p))
                self.pagetable.mark_dirty(p)
                continue
            if entry.state is PageState.INVALID:
                yield from self._fault_fetch(p)
            if entry.state is PageState.CLEAN:
                if charge is None:
                    yield twin_s
                else:
                    yield from charge("diff", twin_s)
                self.pagetable.make_twin(p, self.memory.page_bytes(p))
                self.pagetable.set_state(p, PageState.DIRTY, "write")
            self.pagetable.mark_dirty(p)

    def _seal_pages(
        self, dirty: List[int], vt_index: int, new_vt: VectorClock
    ) -> Tuple[List[Diff], List[Diff], float]:
        """Move the interval's dirty pages to the sealed clock ``new_vt``.

        A home page merges it into its version; any other page drops its
        twin, turns CLEAN and merges it too, unless an early diff already
        carried its writes home.  With :attr:`seal_diffs`, each twin is
        diffed first; returns the remote and home diffs and the scan cost.
        """
        diffs = self.seal_diffs
        scan_s = self.cfg.cpu.diff_scan_per_byte_s * self.cfg.page_size
        remote_diffs: List[Diff] = []
        home_diffs: List[Diff] = []
        scan_cost = 0.0
        for p in dirty:
            entry = self.pagetable.entry(p)
            if entry.home == self.id:
                if entry.twin is not None:  # home-write logging (CCL)
                    scan_cost += scan_s
                    d = create_diff(p, entry.twin, self.memory.page_bytes(p))
                    self.pagetable.drop_twin(p)
                    if not d.is_empty or self.hooks.policy.empty_home_diffs:
                        # record the self-update only when a logged diff
                        # backs it, so reconstruction histories never
                        # reference content-free writes -- unless every
                        # version merge must be log- and mirror-backed
                        home_diffs.append(d)
                        self.home_events[p].append((self.id, vt_index, 0, new_vt))
                elif diffs:
                    self.home_events[p].append((self.id, vt_index, 0, new_vt))
                self.pagetable.set_version(p, entry.version.merge(new_vt))
                continue
            if entry.twin is None and entry.state is not PageState.DIRTY:
                # early-flushed (diffed + invalidated by a mid-interval
                # notice) and at most read back since: already at the home
                continue
            if entry.twin is None:
                raise ProtocolError(
                    f"dirty remote page {p} has no twin on node {self.id}"
                )
            if diffs:
                scan_cost += scan_s
                d = create_diff(p, entry.twin, self.memory.page_bytes(p))
                if not d.is_empty:
                    remote_diffs.append(d)
            self.pagetable.drop_twin(p)
            self.pagetable.set_state(p, PageState.CLEAN, "seal")
            self.pagetable.set_version(
                p, entry.version.merge(new_vt) if entry.version else new_vt)
        return remote_diffs, home_diffs, scan_cost

    def _noticed_pages(
        self, records: List[IntervalRecord]
    ) -> Tuple[List[int], List[IntervalRecord]]:
        """The pages a notice batch invalidates, and the records it applies.

        A record applies iff the clock *at batch entry* does not cover it.
        That equals testing the running clock because batches arrive in
        the order of :meth:`IntervalTable.records_not_covered_by` -- a
        linear extension of happens-before -- so applying a record can
        only cover records that happened before it, earlier in the batch.
        A page is invalidated once, when a peer's applied record names a
        valid remote copy whose version does not include that record.
        """
        pages: List[int] = []
        applied: List[IntervalRecord] = []
        seen: set[int] = set()
        have = self.vt.as_tuple()
        me = self.id
        entry_of = self.pagetable.entry
        for r in records:
            if have[r.node] > r.index:
                continue  # already covered
            applied.append(r)
            if r.node != me:
                for p in r.pages:
                    if p in seen:
                        continue
                    entry = entry_of(p)
                    if entry.home == me:
                        continue  # home copies are always valid
                    if entry.state is PageState.INVALID:
                        continue
                    if entry.version is not None and entry.version.dominates(r.vt):
                        continue  # copy already includes these updates
                    seen.add(p)
                    pages.append(p)
        return pages, applied


class HlrcNode(PageAccess):
    """One cluster node running the HLRC protocol."""

    #: Requests the server loop handles: kind -> handler method.  A
    #: handler takes the payload; a generator handler is run to its end
    #: before the next message is taken.
    REQUEST_KINDS = {
        "page_req": "_serve_page",
        "diff": "_apply_incoming_diffs",
        "lock_req": "_manage_lock_request",
        "lock_rel": "_manage_lock_release",
        "barrier_checkin": "_manage_barrier_checkin",
        "replica_update": "_apply_replica_update",
        "replica_ack": "_on_replica_ack",
    }
    #: Replies the server loop routes to the waiting ``expect()``:
    #: kind -> the payload attribute that keys the expectation.
    REPLY_KINDS = {
        "page_reply": "page",
        "diff_ack": "home",
        "lock_grant": "lock_id",
        "barrier_release": "barrier_id",
    }
    #: Message kinds this node's server loop consumes.  The explicit
    #: whitelist lets other services (heartbeat responders, recovery
    #: responders) share the node's mailbox without message theft.
    SERVER_KINDS = frozenset(REQUEST_KINDS) | frozenset(REPLY_KINDS)

    def __init__(
        self,
        system: "DsmSystem",
        node_id: int,
        hooks: Optional[LoggingHooks] = None,
    ):
        self.system = system
        self.id = node_id
        self.cfg = system.config
        self.sim = system.sim
        # the transport is the reliable layer when fault injection is
        # active, and the bare network otherwise (identical surface)
        self.net = getattr(system, "transport", None) or system.network
        self._send_overhead_s = system.network.config.send_overhead_s
        self.disk = system.disks[node_id]
        self.pagetable = PageTable(
            node_id, system.space.npages, system.homes,
            pool=system.space.buffer_pool,
        )
        # only a home frame starts valid; the rest materialise when fetched
        self.memory = LocalMemory(system.space, live=self.pagetable.home_pages())
        self.pagetable.on_transition = self._on_page_transition
        self.stats = NodeStats(node_id)
        self.hooks = hooks or NoLogging()
        self.hooks.bind(self)

        n = self.cfg.num_nodes
        #: Applied vector timestamp (invalidations reflected in the page table).
        self.vt = VectorClock.zero(n)
        #: All interval records this node knows about.
        self.table = IntervalTable()
        #: Local bundle counter: increments at every release/barrier.
        self.interval_index = 0
        #: Acquires completed within the current interval (log-window tag).
        self.acq_seq = 0
        #: Interval-ending sync operations completed (failure-point index).
        self.seal_count = 0
        #: Early diff flushes performed within the current interval.
        self.interval_parts = 0
        #: Barriers this node has completed (barrier episode number).
        self.barrier_episode = 0

        #: Per-home-page update history:
        #: page -> [(writer, vt_index, part, vt)].
        self.home_events: Dict[int, List[Tuple[int, int, int, VectorClock]]] = {}
        for p in self.pagetable.home_pages():
            self.pagetable.set_version(p, VectorClock.zero(n))
            self.home_events[p] = []

        #: Under-approximation of what each peer's interval table covers
        #: (used to filter records piggybacked on releases/check-ins).
        self.peer_known_vt: Dict[int, VectorClock] = {
            i: VectorClock.zero(n) for i in range(n)
        }

        # manager state (populated lazily; every node can manage locks)
        self.lock_states: Dict[int, LockState] = {}
        self.barrier_state = (
            BarrierState(n, on_event=self._manager_event,
                         clock=lambda: self.sim.now,
                         gather=self.stats.recorder("barrier_gather"))
            if node_id == 0 else None
        )

        #: Reply-routing registry: (kind, key) -> Signal for the main process.
        self._expected: Dict[Tuple[str, Any], Signal] = {}
        #: Failure-point probes (set by the harness / failure injector).
        self.probes: List[ProbeFn] = []
        #: Optional periodic checkpointer (set by the harness).
        self.checkpointer: Optional[Any] = None
        #: Home-replication endpoint (set by the system when the run is
        #: configured with ``replication >= 2``; None keeps every code
        #: path byte-identical to the unreplicated protocol).
        self.replicator: Optional[Any] = None
        #: In-flight overlapped log flush (double-buffered logger).
        self._pending_flush: Optional[Signal] = None

    # ==================================================================
    # helpers
    # ==================================================================
    def lock_manager(self, lock_id: int) -> int:
        """Static lock-to-manager assignment (``lock_id mod n``)."""
        return lock_id % self.cfg.num_nodes

    def _lock_state(self, lock_id: int) -> LockState:
        if self.lock_manager(lock_id) != self.id:
            raise ProtocolError(f"node {self.id} does not manage lock {lock_id}")
        state = self.lock_states.get(lock_id)
        if state is None:
            state = self.lock_states[lock_id] = LockState(
                lock_id, on_event=self._manager_event,
                clock=lambda: self.sim.now,
                waits=self.stats.recorder("lock_queue_wait"),
            )
        return state

    def _trace(self, event: str, detail: Any = None) -> None:
        """Record a protocol event on the system tracer (off by default)."""
        self.system.tracer.record(self.sim.now, self.id, event, detail)

    @property
    def _tracing(self) -> bool:
        """Whether structured events should be built (guards dict costs).

        Checks the module-level :data:`repro.sim.trace.TRACING_ACTIVE`
        flag first so tracing-off runs pay one module attribute load,
        never a per-object property chain.
        """
        return _trc.TRACING_ACTIVE and self.system.tracer.enabled

    def _span(
        self,
        name: str,
        cat: str,
        strand: str = "main",
        detail: Any = None,
    ) -> int:
        """Open a causal span at the current virtual time (-1 when off)."""
        if not self._tracing:
            return -1
        return self.system.tracer.begin(
            self.sim.now, self.id, name, cat, strand=strand, detail=detail
        )

    def _span_end(self, sid: int, detail: Any = None) -> None:
        """Close a span; ``detail`` replaces its detail (:meth:`Tracer.end`)."""
        if sid >= 0:
            self.system.tracer.end(sid, self.sim.now, detail)

    def _manager_event(self, event: str, detail: dict) -> None:
        """Trace sink for manager-side lock/barrier state machines."""
        if self._tracing:
            self._trace(event, detail)

    def _on_page_transition(
        self, page: int, old: PageState, new: PageState, reason: str
    ) -> None:
        """Trace sink for page-table state-machine transitions."""
        if _trc.TRACING_ACTIVE:
            self.system.tracer.transition(self.sim.now, self.id, page, old, new,
                                          reason, self.system.homes[page])

    def expect(self, kind: str, key: Any) -> Signal:
        """Register interest in one future reply message."""
        k = (kind, key)
        if k in self._expected:
            raise ProtocolError(f"node {self.id}: duplicate expectation {k}")
        sig = self._expected[k] = Signal(kind)
        return sig

    def _deliver_expected(self, kind: str, key: Any, msg: NetMessage) -> None:
        sig = self._expected.pop((kind, key), None)
        if sig is None:
            raise ProtocolError(
                f"node {self.id}: unexpected {kind} (key={key!r}) from {msg.src}"
            )
        sig.trigger(msg)

    def _send(self, dst: int, kind: str, payload: Any) -> Generator[Any, Any, None]:
        """Charge the sender's per-message CPU overhead, then post."""
        msg = NetMessage(self.id, dst, kind, payload, payload.nbytes)
        yield self._send_overhead_s
        self.net.post(msg)

    def _post(self, dst: int, kind: str, payload: Any) -> None:
        """Fire-and-forget send without charging caller CPU (handler path)."""
        self.net.post(
            NetMessage(src=self.id, dst=dst, kind=kind, payload=payload,
                       size=payload.nbytes)
        )

    # ==================================================================
    # server loop: asynchronous protocol endpoint
    # ==================================================================
    def server_loop(self) -> Generator[Any, Any, None]:
        """Field incoming protocol messages forever (killed at shutdown)."""
        mbox = self.net.mailbox(self.id)
        kinds = self.SERVER_KINDS
        is_server_kind = lambda m: m.kind in kinds  # noqa: E731 - hoisted
        handlers = {k: getattr(self, name) for k, name in self.REQUEST_KINDS.items()}
        reply_keys = self.REPLY_KINDS
        span_names = {k: f"handle_{k}" for k in kinds}
        while True:
            msg: NetMessage = yield mbox.get(is_server_kind)
            kind = msg.kind
            sid = -1
            if _trc.TRACING_ACTIVE and self._tracing:
                sid = self._span(
                    span_names[kind], "handler", strand="server",
                    detail={"eid": msg.obs_eid, "from": msg.src},
                )
            handler = handlers.get(kind)
            if handler is None:
                self._deliver_expected(
                    kind, getattr(msg.payload, reply_keys[kind]), msg)
            else:
                work = handler(msg.payload)
                if work is not None:
                    yield from work
            if sid >= 0:
                self._span_end(sid)

    # ------------------------------------------------------------------
    def _serve_page(self, req: PageRequest) -> Generator[Any, Any, None]:
        """Home side of a fault: ship the *committed* copy and its version.

        When the home itself holds the page dirty with a twin (the CCL
        home-write-logging mode), the twin is the committed view: it
        carries every applied remote diff (see
        :meth:`_apply_incoming_diffs`) but none of the home's
        uncommitted in-progress writes.  Serving it keeps every byte a
        fetcher ever sees attributable to a versioned update, which is
        what lets recovery reconstruct fetched pages bit-exactly.
        Without a twin (ML / no logging) the live frame is served, as
        plain HLRC does; ML recovery is unaffected because it logs the
        served bytes verbatim.
        """
        entry = self.pagetable.entry(req.page)
        if entry.home != self.id:
            raise ProtocolError(
                f"node {self.id} asked to serve page {req.page} homed at {entry.home}"
            )
        # copying the page out of the frame costs CPU on the home
        yield self.cfg.cpu.twin_copy_per_byte_s * self.cfg.page_size
        source = entry.twin if entry.twin is not None else self.memory.page_bytes(req.page)
        reply = PageReply(req.page, source.copy(), entry.version)
        self.stats.count("pages_served")
        if self._tracing:
            version = entry.version
            self._trace(Ev.PAGE_SERVE, {
                "page": req.page, "to": req.requester, "crc": zlib.crc32(source),
                "version": None if version is None else list(version.as_tuple())})
        self._post(req.requester, "page_reply", reply)

    def _apply_incoming_diffs(self, batch: DiffBatch) -> Generator[Any, Any, None]:
        """Asynchronous update handler (paper Figure 2, bottom).

        Applies received diffs to home copies, records the update event,
        acknowledges, and discards the diffs.
        """
        nbytes = sum(d.word_count for d in batch.diffs) * 4
        yield self.cfg.cpu.diff_apply_per_byte_s * nbytes
        for d in batch.diffs:
            entry = self.pagetable.entry(d.page)
            if entry.home != self.id:
                raise ProtocolError(
                    f"diff for page {d.page} sent to non-home node {self.id}"
                )
            apply_diff(d, self.memory.page_bytes(d.page))
            if entry.twin is not None:
                # keep the committed view current: the twin tracks every
                # applied remote diff so it can be served to fetchers,
                # and so the end-of-interval home diff captures only the
                # home's own words
                apply_diff(d, entry.twin)
            self.pagetable.set_version(d.page, entry.version.merge(batch.vt))
            self.home_events[d.page].append(
                (batch.writer, batch.interval_index, batch.part, batch.vt)
            )
            self.stats.count("diffs_applied")
            self.stats.count("diff_bytes_applied", d.nbytes)
        if self._tracing:
            self._trace(Ev.DIFF_APPLY, {
                "writer": batch.writer, "index": batch.interval_index,
                "part": batch.part, "pages": [d.page for d in batch.diffs],
                "vt": list(batch.vt.as_tuple())})
        self.hooks.notify_update_received(batch)
        if self.replicator is not None:
            self.replicator.record_update(batch)
        self._post(batch.writer, "diff_ack",
                   DiffAck(batch.writer, batch.interval_index, self.id))

    def _apply_replica_update(self, upd: ReplicaUpdate) -> Generator[Any, Any, None]:
        """Follower side of home replication: mirror one sealed delta.

        Applies the primary's accumulated home updates to the local
        mirror frames and acknowledges -- or rejects the whole update
        when epoch fencing says the sender is a deposed primary."""
        rep = self.replicator
        if rep is None:
            raise ProtocolError(
                f"node {self.id} received a replica_update without a replicator"
            )
        nbytes = sum(
            d.word_count for _w, _i, _p, _vt, diffs in upd.entries for d in diffs
        ) * 4
        yield self.cfg.cpu.diff_apply_per_byte_s * nbytes
        accepted = rep.apply_update(upd, self.sim.now)
        self.stats.count("mirrors_applied" if accepted else "mirrors_fenced")
        if self._tracing:
            self._trace("replica_update", {
                "primary": upd.primary, "epoch": upd.epoch, "seal": upd.seal,
                "upto": upd.upto, "accepted": accepted})
        self._post(upd.primary, "replica_ack",
                   ReplicaAck(upd.primary, self.id, upd.epoch, upd.seal, accepted))

    def _on_replica_ack(self, ack: ReplicaAck) -> None:
        """Primary side: one follower's mirror copy landed (or was fenced)."""
        rep = self.replicator
        if rep is None:
            raise ProtocolError(
                f"node {self.id} received a replica_ack without a replicator"
            )
        rep.on_ack(ack, self.sim.now)

    # ------------------------------------------------------------------
    # lock management (manager side)
    # ------------------------------------------------------------------
    def _grant(self, lock_id: int, requester_vt: VectorClock) -> LockGrant:
        records = self.table.records_not_covered_by(requester_vt)
        return LockGrant(lock_id, records, cut_of(records, self.cfg.num_nodes))

    def _manage_lock_request(self, req: LockRequest) -> Generator[Any, Any, None]:
        state = self._lock_state(req.lock_id)
        if state.try_acquire(req.requester, req.vt):
            yield from self._hand_lock(state, req.requester, req.vt)

    def _manage_lock_release(self, rel: LockRelease) -> Generator[Any, Any, None]:
        self.table.add_all(rel.records)
        state = self._lock_state(rel.lock_id)
        nxt = state.release(rel.releaser)
        if nxt is not None:
            yield from self._hand_lock(state, nxt[0], nxt[1])

    def _hand_lock(
        self, state: LockState, to: int, requester_vt: VectorClock
    ) -> Generator[Any, Any, None]:
        grant = self._grant(state.lock_id, requester_vt)
        if to == self.id:
            # the manager itself is acquiring: short-circuit locally
            sig = self._expected.pop(("local_grant", state.lock_id), None)
            if sig is None:
                raise ProtocolError(
                    f"manager {self.id} granted own lock {state.lock_id} "
                    "without a local waiter"
                )
            sig.trigger(grant)
        else:
            yield from self._send(to, "lock_grant", grant)

    # ------------------------------------------------------------------
    # barrier management (manager side)
    # ------------------------------------------------------------------
    def _manage_barrier_checkin(self, msg: BarrierCheckin) -> None:
        if self.barrier_state is None:
            raise ProtocolError(f"node {self.id} is not the barrier manager")
        self.table.add_all(msg.records)
        self.barrier_state.checkin(msg.node, msg.vt, msg.episode)

    # ==================================================================
    # application-facing operations (run on the app's simulated process)
    # ==================================================================
    def compute(self, flops: float) -> Generator[Any, Any, None]:
        """Charge ``flops`` of application work to the virtual clock."""
        dt = self.cfg.cpu.compute_time(flops)
        self.stats.charge("compute", dt)
        sid = self._span("compute", "cpu")
        yield dt
        self._span_end(sid)

    def idle(self, seconds: float) -> Generator[Any, Any, None]:
        """Charge raw wall time (I/O-ish application phases)."""
        self.stats.charge("compute", seconds)
        sid = self._span("idle", "cpu")
        yield seconds
        self._span_end(sid)

    # ------------------------------------------------------------------
    def _sync_entry(self) -> Generator[Any, Any, None]:
        """Every sync operation's start: overhead, then ML's synchronous flush."""
        yield self.cfg.cpu.sync_overhead_s
        if self.hooks.policy.sync_flush:
            fsid = -1 if not self._tracing else self._span("log_flush", "disk", detail={"mode": "sync"})
            yield from self.hooks.sync_entry_flush()
            self._span_end(fsid)

    def acquire(self, lock_id: int) -> Generator[Any, Any, None]:
        """Lock acquire: fetch ownership + apply piggybacked notices."""
        osid = -1 if not self._tracing else self._span("acquire", "sync", detail={"lock": lock_id})
        yield from self._sync_entry()
        t0 = self.sim.now
        mgr = self.lock_manager(lock_id)
        wsid = -1 if not self._tracing else self._span("lock_wait", "wait", detail={"lock": lock_id})
        if mgr == self.id:
            grant = yield from self._acquire_local(lock_id)
            self._span_end(wsid)
        else:
            sig = self.expect("lock_grant", lock_id)
            yield from self._send(mgr, "lock_req",
                                  LockRequest(lock_id, self.id, self.vt))
            msg = yield sig
            self._span_end(wsid, detail={"lock": lock_id, "eid": msg.obs_eid})
            grant = msg.payload
            self.peer_known_vt[mgr] = self.peer_known_vt[mgr].merge(grant.cut)
        self.stats.charge("sync", self.sim.now - t0)
        self.stats.observe("lock_acquire", self.sim.now - t0)
        self.stats.count("lock_acquires")
        if self._tracing:
            self._trace("acquire", lock_id)
        yield from self._apply_notices(grant.records, grant.cut)
        self.acq_seq += 1
        if self._tracing:
            self._trace(Ev.LOCK_ACQUIRED, {"lock": lock_id, "vt": list(self.vt.as_tuple())})
        self.hooks.notify_notices_received(grant.records, self.acq_seq)
        self._span_end(osid)

    def _acquire_local(self, lock_id: int) -> Generator[Any, Any, LockGrant]:
        state = self._lock_state(lock_id)
        if state.try_acquire(self.id, self.vt):
            return self._grant(lock_id, self.vt)
        return (yield self.expect("local_grant", lock_id))

    # ------------------------------------------------------------------
    def release(self, lock_id: int) -> Generator[Any, Any, None]:
        """Lock release: close the interval, flush diffs + log, hand off."""
        osid = -1 if not self._tracing else self._span("release", "sync", detail={"lock": lock_id})
        yield from self._sync_entry()
        yield from self._end_interval()
        yield from self._sealed()
        if self._tracing:
            self._trace(Ev.LOCK_RELEASED, {"lock": lock_id, "vt": list(self.vt.as_tuple())})
        mgr = self.lock_manager(lock_id)
        if mgr == self.id:
            yield from self._manage_lock_release(LockRelease(lock_id, self.id, []))
        else:
            records = self.table.records_not_covered_by(self.peer_known_vt[mgr])
            yield from self._send(mgr, "lock_rel",
                                  LockRelease(lock_id, self.id, records))
            self.peer_known_vt[mgr] = self.peer_known_vt[mgr].merge(self.vt)
        self.stats.count("lock_releases")
        if self._tracing:
            self._trace("release", lock_id)
        self._span_end(osid)

    # ------------------------------------------------------------------
    def barrier(self, barrier_id: int = 0) -> Generator[Any, Any, None]:
        """Barrier: close the interval, then all-to-all notice exchange."""
        osid = -1 if not self._tracing else self._span("barrier", "sync", detail={"barrier": barrier_id})
        yield from self._sync_entry()
        yield from self._end_interval()
        yield from self._sealed()
        ep = self.barrier_episode
        if self._tracing:
            self._trace(Ev.BARRIER_ENTER, {"barrier": barrier_id, "episode": ep,
                                           "vt": list(self.vt.as_tuple())})
        t0 = self.sim.now
        role = self._barrier_as_manager if self.id == 0 else self._barrier_as_worker
        records = yield from role(barrier_id)
        if self._tracing:
            self._trace(Ev.BARRIER_EXIT, {"barrier": barrier_id, "episode": ep,
                                          "vt": list(self.vt.as_tuple())})
        self.stats.charge("sync", self.sim.now - t0)
        self.stats.observe("barrier", self.sim.now - t0)
        self.stats.count("barriers")
        if self._tracing:
            self._trace("barrier", barrier_id)
        # after a barrier every node's history covers the global cut, so
        # interval records at or below it can never be requested again.
        # The release's records are counted, not inserted and dropped: no
        # table query can tell, for nothing yields since the apply (no page
        # is dirty right after a seal) and every requester covers the cut
        pruned = self.table.prune_covered_by(self.vt, records)
        if pruned:
            self.stats.count("records_pruned", pruned)
        self._span_end(osid)

    def _barrier_as_worker(self, barrier_id: int) -> Generator[Any, Any, List[IntervalRecord]]:
        mgr = 0
        records = self.table.records_not_covered_by(self.peer_known_vt[mgr])
        sig = self.expect("barrier_release", barrier_id)
        wsid = -1 if not self._tracing else self._span("barrier_wait", "wait", detail={"barrier": barrier_id})
        checkin = BarrierCheckin(barrier_id, self.id, self.barrier_episode, self.vt,
                                 records)
        yield from self._send(mgr, "barrier_checkin", checkin)
        msg = yield sig
        self._span_end(wsid, detail={"barrier": barrier_id, "eid": msg.obs_eid})
        self.barrier_episode += 1
        release: BarrierRelease = msg.payload
        yield from self._apply_notices(release.records, release.cut, barrier=True)
        self.hooks.notify_notices_received(release.records, 0)
        # after a barrier everyone's history is global: the manager covers it
        self.peer_known_vt[mgr] = self.vt
        return release.records

    def _barrier_as_manager(self, barrier_id: int) -> Generator[Any, Any, List[IntervalRecord]]:
        assert self.barrier_state is not None
        all_in = self.barrier_state.checkin(self.id, self.vt, self.barrier_episode)
        self.barrier_episode += 1
        wsid = -1 if not self._tracing else self._span("barrier_wait", "wait", detail={"barrier": barrier_id})
        yield all_in
        self._span_end(wsid)
        participants = self.barrier_state.participant_vts()
        # One immutable batch per episode: what the table holds now that
        # all are in, sorted once, its clocks joined once; a release is
        # its in-order filter against a check-in clock.  A fast node's
        # *next* records may arrive while this loop sends: next episode's.
        batch = NoticeBatch(self.table.all_records(), self.cfg.num_nodes)
        for node, vt in participants:
            if node != self.id:
                release = BarrierRelease(barrier_id, batch.lacking(vt), batch.cut)
                yield from self._send(node, "barrier_release", release)
        own = batch.lacking(self.vt)
        yield from self._apply_notices(own, batch.cut, barrier=True)
        self.hooks.notify_notices_received(own, 0)
        for node, _vt in participants:
            self.peer_known_vt[node] = self.peer_known_vt[node].merge(self.vt)
        self.barrier_state.next_episode()
        return own

    # ------------------------------------------------------------------
    def _apply_notices(
        self, records: List[IntervalRecord], cut: VectorClock, barrier: bool = False
    ) -> Generator[Any, Any, None]:
        """Invalidate remote copies named by uncovered interval records.

        A noticed page the node currently holds *dirty* (possible under
        false sharing, when the notice travels a lock chain mid-interval)
        is diffed to its home first -- the "early diff flush" of
        TreadMarks-style protocols -- so local modifications survive the
        invalidation.  :meth:`_noticed_pages` says which records apply;
        the clock advances once per batch, by one merge with the batch's
        ``cut`` (:func:`~repro.dsm.interval.cut_of`).

        A lock grant's records enter the table, to travel on with this
        node's next release; a ``barrier`` release's do not, because
        :meth:`barrier` prunes everything the new clock covers next.
        """
        to_invalidate, applied = self._noticed_pages(records)
        if not barrier:
            for r in applied:
                self.table.add(r)
        self.vt = self.vt.merge(cut)
        dirty_hit = [p for p in to_invalidate
                     if self.pagetable.entry(p).state is PageState.DIRTY]
        if dirty_hit:
            yield from self._early_diff_flush(dirty_hit)
        for p in to_invalidate:
            self.pagetable.invalidate(p)
            self.stats.count("invalidations")

    def _early_diff_flush(self, pages: List[int]) -> Generator[Any, Any, None]:
        """Diff dirty pages to their homes before invalidating them."""
        cpu = self.cfg.cpu
        by_home: Dict[int, List[Diff]] = {}
        scan_cost = 0.0
        early_vt = self.vt.tick(self.id)
        vt_index = self.vt[self.id]
        part = self.interval_parts + 1
        for p in pages:
            entry = self.pagetable.entry(p)
            scan_cost += cpu.diff_scan_per_byte_s * self.cfg.page_size
            d = create_diff(p, entry.twin, self.memory.page_bytes(p))
            self.pagetable.drop_twin(p)
            if d.is_empty:
                continue
            by_home.setdefault(entry.home, []).append(d)
            if self._tracing:
                self._trace(Ev.EARLY_DIFF, {
                    "page": p, "part": part, "vt": list(early_vt.as_tuple()),
                    "runs": (d.mask, d.run_count)})  # a table when read
            self.hooks.notify_early_diff(d, part, early_vt)
            self.stats.count("early_diffs")
            self.stats.count("diff_bytes_sent", d.nbytes)
        if scan_cost:
            self.stats.charge("diff", scan_cost)
            ssid = self._span("diff_scan", "cpu",
                              detail={"pages": len(pages), "part": part})
            yield scan_cost
            self._span_end(ssid)
        if not by_home:
            return
        self.interval_parts = part
        ack_sigs = yield from self._send_diffs(by_home, vt_index, early_vt, part)
        t0 = self.sim.now
        wsid = self._span("diff_wait", "wait",
                          detail={"interval": vt_index, "part": part})
        yield AllOf(ack_sigs)
        self._span_end(wsid)
        self.stats.charge("diff_wait", self.sim.now - t0)
        if self._tracing:
            self._trace(Ev.DIFF_ACKED,
                        {"index": vt_index, "part": part, "homes": sorted(by_home)})

    def _send_diffs(self, by_home: Dict[int, List[Diff]], index: int, vt: VectorClock,
                    part: int) -> Generator[Any, Any, List[Signal]]:
        """One diff batch per home, in home order; returns the ACK signals."""
        ack_sigs: List[Signal] = []
        for home, diffs in sorted(by_home.items()):
            if self._tracing:
                self._trace(Ev.DIFF_SEND, {
                    "home": home, "index": index, "part": part,
                    "pages": [d.page for d in diffs], "vt": list(vt.as_tuple())})
            ack_sigs.append(self.expect("diff_ack", home))
            yield from self._send(home, "diff", DiffBatch(self.id, index, vt, diffs, part))
        return ack_sigs

    # ------------------------------------------------------------------
    def _end_interval(self) -> Generator[Any, Any, None]:
        """Close the current interval (paper Figures 2-3, failure-free path).

        Creates diffs for dirty pages, flushes them to their homes, lets
        the logging protocol flush overlapped with the ACK wait, and
        advances the interval/bundle counters.
        """
        dirty = self.pagetable.take_dirty()
        remote_diffs: List[Diff] = []
        home_diffs: List[Diff] = []
        new_vt: Optional[VectorClock] = None
        record: Optional[IntervalRecord] = None

        if dirty:
            vt_index = self.vt[self.id]
            new_vt = self.vt.tick(self.id)
            remote_diffs, home_diffs, scan_cost = self._seal_pages(
                dirty, vt_index, new_vt)
            if scan_cost:
                self.stats.charge("diff", scan_cost)
                ssid = self._span("diff_scan", "cpu",
                                  detail={"pages": len(dirty)})
                yield scan_cost
                self._span_end(ssid)
            record = IntervalRecord(self.id, vt_index, new_vt, tuple(dirty))
            self.stats.count("diffs_created", len(remote_diffs))
            self.stats.count("diff_bytes_sent", sum(d.nbytes for d in remote_diffs))

        # let the logging protocol capture the interval before anything
        # is sent (CCL logs its own diffs; ML has nothing to do here)
        self.hooks.notify_interval_end(
            self.interval_index, new_vt if new_vt is not None else self.vt,
            remote_diffs, home_diffs, record)

        # the replication layer mirrors the home-side delta of this
        # interval: the node's own committed home writes join the queue
        # here, in the same order CCL logs them
        if self.replicator is not None and home_diffs:
            assert record is not None and new_vt is not None
            self.replicator.record_home_writes(home_diffs, record.index, new_vt)

        # flush diffs to the homes of the written pages
        ack_sigs: List[Signal] = []
        by_home: Dict[int, List[Diff]] = {}
        if remote_diffs:
            for d in remote_diffs:
                by_home.setdefault(self.pagetable.entry(d.page).home, []).append(d)
            assert new_vt is not None and record is not None
            ack_sigs = yield from self._send_diffs(by_home, record.index, new_vt, 0)

        # Double-buffered logging: one flush may be in flight.  If the
        # previous interval's flush has not yet drained, the disk is the
        # bottleneck and we absorb the backpressure here; otherwise the
        # flush below proceeds entirely in the shadow of the ACK wait
        # and the ensuing synchronisation (paper Figures 2-3: the node
        # waits for acknowledgements, never for its own disk).
        if self._pending_flush is not None and not self._pending_flush.triggered:
            t1 = self.sim.now
            stall_sid = self._span("flush_stall", "wait")
            yield self._pending_flush
            self._span_end(stall_sid)
            self.stats.charge("log_flush", self.sim.now - t1)
        self._pending_flush = self.hooks.overlapped_flush()
        if self._pending_flush is not None and self._tracing:
            fsid = self._span("log_flush", "disk", strand="disk", detail={
                "mode": "async", "interval": self.interval_index})
            tracer = self.system.tracer
            sim = self.sim
            self._pending_flush.add_callback(lambda _v, s=fsid: tracer.end(s, sim.now))

        if ack_sigs:
            t0 = self.sim.now
            wsid = self._span("diff_wait", "wait",
                              detail={"interval": self.interval_index, "part": 0})
            yield AllOf(ack_sigs)
            self._span_end(wsid)
            self.stats.charge("diff_wait", self.sim.now - t0)
            self.stats.observe("diff_wait", self.sim.now - t0)
            if self._tracing:
                assert record is not None
                self._trace(Ev.DIFF_ACKED,
                            {"index": record.index, "part": 0, "homes": sorted(by_home)})

        if record is not None:
            assert new_vt is not None
            self.table.add(record)
            self.vt = new_vt
            if self._tracing:
                self._trace(Ev.INTERVAL_END, {
                    "interval": record.index, "vt": list(new_vt.as_tuple()),
                    "pages": list(record.pages),
                    "writes": [(d.page, d.mask, d.run_count)  # dicts when read
                               for d in remote_diffs + home_diffs]})
        if self._tracing:
            self._trace("seal", self.interval_index)
        self.interval_index += 1
        self.acq_seq = 0
        self.interval_parts = 0
        self.seal_count += 1

    def _sealed(self) -> Generator[Any, Any, None]:
        """What follows every seal: crash probes, mirror, checkpoint.

        The probes fire first, at the seal instant: a crash "at seal s"
        is the state the log tags with intervals below ``s``, and every
        later step here yields, letting home updates in that the log
        tags with the *next* interval.
        """
        for probe in self.probes:
            probe(self, self.seal_count)
        # ship the sealed home-state delta to this home's replica group;
        # the entries are captured synchronously at the probe instant, so
        # the mirror a follower holds for seal s is bit-identical to the
        # home state the seal-s failure probe snapshots
        if self.replicator is not None:
            yield from self.replicator.seal_mirror(self)
        if self.checkpointer is not None:
            yield from self.checkpointer.maybe_take(self)

    # ==================================================================
    # page access: a miss is one round trip to the home
    # ==================================================================
    def _fault_fetch(self, page: int) -> Generator[Any, Any, None]:
        """One page-fault round trip to the home node."""
        t0 = self.sim.now
        wsid = -1 if not self._tracing else self._span("page_fault", "wait", detail={"page": page})
        yield self.cfg.cpu.page_fault_s
        entry = self.pagetable.entry(page)
        sig = self.expect("page_reply", page)
        yield from self._send(entry.home, "page_req", PageRequest(page, self.id))
        msg = yield sig
        self._span_end(wsid, detail={"page": page, "eid": msg.obs_eid})
        reply: PageReply = msg.payload
        self.memory.page_bytes(page)[:] = reply.contents
        self.pagetable.set_state(page, PageState.CLEAN, "fetch")
        self.pagetable.set_version(page, reply.version)
        self.stats.count("page_faults")
        self.stats.count("page_bytes_fetched", len(reply.contents))
        self.stats.charge("fault", self.sim.now - t0)
        self.stats.observe("page_fetch", self.sim.now - t0)
        if self._tracing:
            self._trace("fault", page)
            version = reply.version
            self._trace(Ev.PAGE_FETCH, {
                "page": page, "home": entry.home, "crc": zlib.crc32(reply.contents),
                "version": None if version is None else list(version.as_tuple())})
        self.hooks.notify_page_fetched(page, reply.contents, reply.version, self.acq_seq)
