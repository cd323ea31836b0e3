"""Crash recovery: the one replay node and the one recovery driver.

Recovery re-executes the failed node's program deterministically from
its most recent checkpoint (the initial state in the paper's
experiments), consuming logged data instead of performing live
synchronisation (paper Figures 2-3, ``in_recovery`` branches):

* locks and barriers are local -- no manager traffic, no waiting on
  peers (a large part of recovery's speedup over re-execution);
* write-invalidation notices come from the local log, replayed at the
  same in-interval positions they originally arrived at;
* home copies are brought forward with logged update data;
* remote copies are revalidated from logged information -- ML installs
  the logged page contents at each memory miss, CCL prefetches and
  reconstructs every page at each interval start.

The one driver, :func:`run_recovery_experiment`, runs four stages.
**Phase A** executes the application failure-free under the chosen
logging protocol, with a :class:`~repro.core.failure.CrashProbe`
capturing each victim's state at the crash point.  **Plan**
(:func:`plan_victim`) turns a probed victim and a crash seal or instant
into a :class:`VictimPlan`: the log replay may trust, how far it can go,
and the checkpoint it starts from.  **Recover** (:func:`recover_victims`)
builds a :class:`RecoveryWorld` -- a fresh simulation with a responder
per node serving from its phase-A state -- and either replays every
planned victim in it concurrently (a single failure is the one-victim
case) or, for a promoting scheme over replicated homes, promotes a
replica per victim (:mod:`repro.core.failover_recovery`).  **Verify**
(:func:`compare_state`, or :func:`~repro.core.failover_recovery.compare_mirror`
for a promoted mirror) checks the recovered pages bit for bit against
the crash-point snapshot.

A note on in-flight messages: a diff acknowledged by the victim in the
instant between its last flush and the crash would be absent from the
log.  We adopt the paper's crash point ("a certain time after the
volatile logs of this interval are flushed") by force-sealing the
volatile tail at the probe, i.e. the crash is assumed to follow a
quiescent flush.  A production system would add a writer-driven
re-delivery pass (writers hold their own diffs in the CCL log), which
is exactly why CCL logs outgoing diffs durably.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..config import ClusterConfig
from ..dsm.api import Dsm
from ..dsm.hlrc import PageAccess
from ..dsm.interval import VectorClock
from ..dsm.logginghooks import NoLogging
from ..dsm.messages import LogDiffRequest
from ..dsm.system import DsmSystem, RunResult
from ..errors import ConfigError, RecoveryError
from ..memory import LocalMemory, PageState, PageTable
from ..memory.diff import Diff
from ..sim.disk import Disk
from ..sim.engine import Simulator
from ..sim.events import AllOf
from ..sim.network import NetMessage, Network
from ..sim.process import SimProcess
from ..sim.stats import NodeStats
from .checkpoint import Checkpointer, CheckpointSnapshot
from .failure import CrashProbe, FailureSnapshot
from .logging_base import RECOVERY_PROTOCOL_NAMES, SCHEMES, make_hooks_factory
from .logrecords import ModeSwitchLogRecord, NoticeLogRecord
from .replication import validate_replication
from .responder import FailedNodeResponder, SurvivorResponder
from .salvage import SalvageReport, plan_recovery, salvage_log
from .stablelog import StableLog

__all__ = [
    "ReplayEngine",
    "ReplayNode",
    "VictimPlan",
    "plan_victim",
    "RecoveryWorld",
    "check_crash",
    "Promotion",
    "VictimRecovery",
    "RecoveryResult",
    "recover_victims",
    "replay_failed_node",
    "run_recovery_experiment",
    "compare_state",
]


def _replay_mode(protocol: str) -> str:
    """The mode a protocol's log replays in where no switch marker says.

    Raises :class:`~repro.errors.RecoveryError` on a name with no replay
    -- an ``ml-else-ccl`` fallback would silently replay any typo with
    the CCL engine.
    """
    scheme = SCHEMES.get(protocol)
    if scheme is None or scheme.replay is None:
        raise RecoveryError(
            f"no replay engine for protocol {protocol!r}; "
            f"know {RECOVERY_PROTOCOL_NAMES}"
        )
    return scheme.replay


def check_crash(num_nodes: int, down: Iterable[int], *stop_ats: int) -> None:
    """Refuse, in one line, a crash no recovery entry point can serve.

    Unchecked, a bad victim rank only surfaces after a full phase-A run
    as "never reached seal", or as an ``IndexError`` from deep inside
    the phase-B network.
    """
    down = set(down)
    for rank in sorted(down):
        if not (0 <= rank < num_nodes):
            raise RecoveryError(
                f"failed node {rank} is not a valid rank; the cluster has "
                f"nodes 0..{num_nodes - 1}"
            )
    if len(down) >= num_nodes:
        raise RecoveryError("at least one node must survive")
    for stop_at in stop_ats:
        if stop_at < 1:
            raise RecoveryError(
                f"recovery needs at least one sealed interval, got {stop_at}"
            )


# ======================================================================
# plan: what one victim's recovery may trust and how far it can go
# ======================================================================


@dataclass
class VictimPlan:
    """Everything phase B needs to recover one victim."""

    victim: int
    #: The log replay consumes (full, or the crash instant's durable view).
    plog: StableLog
    #: Replay stops after this many seals (0: nothing recoverable).
    stop_at: int
    #: Seals before this one re-execute at zero cost (checkpoint restore).
    free_until: int = 0
    checkpoint: Optional[CheckpointSnapshot] = None
    #: Salvage scan outcome; its scanned bytes are charged to the replay.
    salvage: Optional[SalvageReport] = None
    #: Phase-A state at ``stop_at``: what recovery is verified against.
    snapshot: Optional[FailureSnapshot] = None
    #: Every seal's phase-A state (``capture_all`` probes): a promoted
    #: mirror that runs ahead of ``stop_at`` is verified at its own seal.
    snapshots: Dict[int, FailureSnapshot] = field(default_factory=dict)


def plan_victim(
    system_a: DsmSystem, probe: CrashProbe, at_time: Optional[float] = None
) -> VictimPlan:
    """Plan one probed victim's recovery from a finished phase A.

    ``at_time=None`` is the paper's seal-aligned crash: the probe's
    snapshot names the seal and the full log is trusted.  With
    ``at_time`` the victim crashes at that arbitrary instant (the probe
    must ``capture_all``): the log is cut to what the crash leaves on
    disk and salvaged when the system's disks are faulty.  Either way
    :func:`~repro.core.salvage.plan_recovery` bounds the replay and
    picks the retained checkpoint it starts from, or refuses a
    truncated log none can anchor.  ``stop_at == 0`` means nothing
    durable was sealed: recovery is a restart from scratch.
    """
    victim = probe.node
    node = system_a.nodes[victim]
    full: StableLog = getattr(node.hooks, "log")
    view, report = full, None
    if at_time is None:
        if probe.snapshot is None:
            where = "a seal" if probe.at_seal is None else f"seal {probe.at_seal}"
            raise RecoveryError(
                f"node {victim} never reached {where}; cannot crash there"
            )
        seals_done = probe.snapshot.seal_count
    else:
        seals_done = sum(1 for s in probe.snapshots.values() if s.time <= at_time)
        view = full.durable_view(at_time)
        faults = system_a.disk_fault_plan
        if faults is not None and faults.active:
            view, report = salvage_log(view)
        else:
            report = SalvageReport(
                victim, salvaged_count=len(view.persistent_records)
            )
    stop_at, free_until, base = plan_recovery(
        full, report, seals_done, node.checkpointer)
    snapshot = probe.snapshot if at_time is None else probe.snapshots.get(stop_at)
    return VictimPlan(victim, view, stop_at, free_until, base, report,
                      snapshot, probe.snapshots)


# ======================================================================
# world: the phase-B simulation every recovery runs in
# ======================================================================


class RecoveryWorld:
    """A fresh simulation serving recovery from phase-A state.

    Owns the simulator, the network, one disk per node and one responder
    per node with its service loop running: survivors answer from live
    state, nodes in ``down`` (the victims and any co-victims of a zone
    kill) from their surviving logs alone -- with the simplification
    that a down node serves its peers from its *full* phase-A log, not
    subject to its own crash-time cut.  :meth:`run` adds the recovering
    actors and a controller that reaps every process once they are done.
    """

    def __init__(self, config: ClusterConfig, system_a: DsmSystem,
                 down: Iterable[int]):
        down = set(down)
        self.config = config
        self.system_a = system_a
        self.sim = Simulator()
        self.net = Network(self.sim, config.network, config.num_nodes)
        self.disks = [
            Disk(self.sim, config.disk, f"rdisk{i}")
            for i in range(config.num_nodes)
        ]
        ckpt_image = system_a.space.initial_image()
        self.responders: Dict[int, SurvivorResponder] = {}
        for node in system_a.nodes:
            if node.id not in down:
                self.responders[node.id] = SurvivorResponder(node, ckpt_image)
                continue
            log = getattr(node.hooks, "log", None)
            if log is None:
                raise RecoveryError(
                    f"node {node.id} is down but keeps no log to answer "
                    "recovery requests from"
                )
            self.responders[node.id] = FailedNodeResponder(node, ckpt_image, log)
        self._services: List[SimProcess] = []
        for r in self.responders.values():
            self.spawn(r.loop(self.net, self.disks[r.id]), f"responder{r.id}")

    def spawn(self, gen: Generator[Any, Any, None], name: str) -> SimProcess:
        """Start a service process; :meth:`run` kills it at the end."""
        proc = self.sim.spawn(gen, name=name)
        self._services.append(proc)
        return proc

    def run(self, actors: Dict[str, Generator[Any, Any, None]]) -> None:
        """Run the recovering ``actors`` to completion, then reap the services."""
        procs = [self.sim.spawn(gen, name=name) for name, gen in actors.items()]

        def controller() -> Generator[Any, Any, None]:
            yield AllOf([p.done for p in procs])
            for proc in self._services:
                proc.kill()

        self.sim.spawn(controller(), name="recovery-controller")
        self.sim.run()


# ======================================================================
# victims: the replay node and its per-interval engine
# ======================================================================


class _CrashPointReached(Exception):
    """Unwinds the replayed program once the victim is back at its crash point."""


class ReplayEngine:
    """How one logged interval's data is materialised.

    The only point at which ML and CCL replay differ (paper Figures
    2-3): the :class:`ReplayNode` calls these four steps, with itself
    as ``node``, on the engine of the mode the current interval was
    logged in.  An engine keeps no reference to its node: a replay node
    must stay free of reference cycles so its memory image is released
    the moment the caller drops it.
    """

    def begin_interval(self, node: "ReplayNode") -> Generator[Any, Any, None]:
        """Read the new interval's boundary records; update home copies."""
        raise NotImplementedError

    def read_window(self, node: "ReplayNode", window: int, notices) -> Iterable[Any]:
        """Pay for a window's notices before they are applied."""
        return ()

    def prefetch(self, node: "ReplayNode", window: int) -> Iterable[Any]:
        """Revalidate remote copies once a window's notices are applied."""
        return ()

    def fault(self, node: "ReplayNode", page: int) -> Generator[Any, Any, None]:
        """Serve a memory miss on an invalid remote page."""
        raise NotImplementedError


class ReplayNode(PageAccess):
    """Recovery-mode node: one victim's unmodified program, replayed.

    Presents :class:`~repro.dsm.hlrc.HlrcNode`'s surface to the
    :class:`~repro.dsm.api.Dsm` facade and runs its page access, seal
    transitions and notice filter (:class:`~repro.dsm.hlrc.PageAccess`):
    the engine of the interval's logging mode serves each miss, and a
    twin copy is charged to ``diff`` while timed.  The mode is read off
    the log: the adaptive protocol's mode-switch markers where it has
    them, else the scheme's own (``mode``).  Replay logs nothing, so it
    twins no home page, and its seal diffs nothing: every diff it
    replays is at its home already.
    """

    seal_diffs = False

    def __init__(self, world: RecoveryWorld, plan: VictimPlan, mode: str):
        from .ccl_recovery import CclEngine  # the engines import this module
        from .ml_recovery import MlEngine

        system_a, config = world.system_a, world.config
        space = system_a.space
        self.sim = world.sim
        self.net = world.net
        self.disk = world.disks[plan.victim]
        self.cfg = config
        self.id = plan.victim
        self.hooks = NoLogging()  # replay logs nothing, so twins no home page
        # every frame starts from the initial image: a restoring replay runs
        # the program over frames nothing fetches before the checkpoint lands
        self.memory = LocalMemory(space)
        self.pagetable = PageTable(
            self.id, space.npages, system_a.homes, pool=space.buffer_pool
        )
        for p in self.pagetable.home_pages():
            self.pagetable.set_version(p, VectorClock.zero(config.num_nodes))
        self.vt = VectorClock.zero(config.num_nodes)
        self.interval_index = 0
        self.acq_seq = 0
        self.seal_count = 0
        self.plog = plan.plog
        self.stop_at = plan.stop_at
        self.responders = {
            i: r for i, r in world.responders.items() if i != self.id
        }
        self.free_until = plan.free_until
        self.checkpoint = plan.checkpoint
        self.salvage = plan.salvage
        #: Truncation makes pre-checkpoint intervals unqueryable, so the
        #: usual zero-cost fast-forward (which still *reads* the log)
        #: would trip the watermark guards.  Restore mode instead skips
        #: the truncated intervals outright and installs the checkpoint
        #: image verbatim when the replay reaches its seal.
        self.restore_mode = (
            plan.checkpoint is not None and plan.plog.truncated_below > 0
        )
        self.stats = NodeStats(self.id)
        self._engines = {"ml": MlEngine(), "ccl": CclEngine()}
        #: The mode of intervals no switch marker covers.
        self.mode = mode
        #: ``(first_interval, mode)`` switch points in interval order.
        self.switch_points: List[Tuple[int, str]] = [
            (r.interval, r.mode) for r in sorted(
                self.plog.select(ModeSwitchLogRecord), key=lambda r: r.interval)
        ]
        self.engine: ReplayEngine = self._engines[mode]
        #: Virtual time at which replay reached the crash point (None
        #: while replaying, or if the program ended before ``stop_at``).
        self.finished_at: Optional[float] = None

    # ------------------------------------------------------------------
    def mode_at(self, interval: int) -> str:
        """The logging mode ``interval`` was written in: that of the last
        switch marker at or below it, else :attr:`mode`."""
        mode = self.mode
        for first, m in self.switch_points:
            if first > interval:
                break
            mode = m
        return mode

    @property
    def timed(self) -> bool:
        """False while fast-forwarding to the checkpoint (zero cost)."""
        return self.seal_count >= self.free_until

    @property
    def restoring(self) -> bool:
        """True while skipping truncated intervals before the restore."""
        return self.restore_mode and self.seal_count < self.free_until

    def _spend(self, category: str, seconds: float) -> Generator[Any, Any, None]:
        if self.timed and seconds > 0:
            self.stats.charge(category, seconds)
            yield seconds

    _twin_charge = _spend

    def _fault_fetch(self, page: int) -> Iterable[Any]:
        """A miss is served by the interval's engine (its generator)."""
        return self.engine.fault(self, page)

    def _disk_read(self, category: str, nbytes: int) -> Generator[Any, Any, None]:
        """A sequential log-scan read (replay consumes the log in order)."""
        if self.timed and nbytes > 0:
            with self.stats.bracket(self.sim, category):
                yield self.disk.read_seq(nbytes)
            self.stats.count("log_reads")
            self.stats.count("log_read_bytes", nbytes)

    # ------------------------------------------------------------------
    # Dsm-facing surface
    # ------------------------------------------------------------------
    def compute(self, flops: float) -> Generator[Any, Any, None]:
        """Re-execute application work (full cost in timed mode)."""
        yield from self._spend("compute", self.cfg.cpu.compute_time(flops))

    def acquire(self, lock_id: int) -> Generator[Any, Any, None]:
        """Recovery acquire: local, fed from the logged notices."""
        yield from self._spend("sync", self.cfg.cpu.sync_overhead_s)
        self.acq_seq += 1
        yield from self._process_window(self.acq_seq)
        self.stats.count("lock_acquires")

    def release(self, lock_id: int) -> Generator[Any, Any, None]:
        """Recovery release: just closes the interval (Figure 2)."""
        yield from self._seal_interval()
        self.stats.count("lock_releases")

    def barrier(self, barrier_id: int = 0) -> Generator[Any, Any, None]:
        """Recovery barrier: closes the interval, no waiting (Figure 3)."""
        yield from self._seal_interval()
        self.stats.count("barriers")

    # ------------------------------------------------------------------
    # replay
    # ------------------------------------------------------------------
    def run(self, app) -> Generator[Any, Any, None]:
        """The victim's phase-B process: the unmodified program, replayed.

        Salvage is part of recovery time: the bytes its CRC walk read
        are charged as a sequential scan before any interval is
        processed; the first interval's logged data is then processed
        before the application starts.
        """
        if self.salvage is not None and self.salvage.scan_bytes:
            with self.stats.bracket(self.sim, "salvage_scan"):
                yield self.disk.read_seq(self.salvage.scan_bytes)
        try:
            yield from self._begin_interval()
            yield from app.program(Dsm(self, self.id, self.cfg.num_nodes))
        except _CrashPointReached:
            self.finished_at = self.sim.now

    def _seal_interval(self) -> Generator[Any, Any, None]:
        yield from self._spend("sync", self.cfg.cpu.sync_overhead_s)
        dirty = self.pagetable.take_dirty()
        if dirty and not self.restoring:
            new_vt = self.vt.tick(self.id)
            self._seal_pages(dirty, self.vt[self.id], new_vt)
            self.vt = new_vt
        self.interval_index += 1
        self.acq_seq = 0
        self.seal_count += 1
        if (
            self.checkpoint is not None
            and self.seal_count == self.free_until
        ):
            if self.restore_mode:
                # fast-forward could not touch the truncated log, so the
                # checkpoint image is installed verbatim here
                self._restore_checkpoint(self.checkpoint)
            # timed replay begins here: charge the checkpoint restore read
            with self.stats.bracket(self.sim, "ckpt_restore"):
                yield self.disk.read(self.checkpoint.nbytes)
        if self.seal_count >= self.stop_at:
            raise _CrashPointReached
        yield from self._begin_interval()

    def _restore_checkpoint(self, snap: CheckpointSnapshot) -> None:
        """Install a checkpoint image verbatim (truncated-log replay)."""
        self.memory.buffer[:] = snap.memory
        self.vt = snap.vt
        self.interval_index = snap.interval_index
        for p, (state, version) in snap.page_states.items():
            entry = self.pagetable.entry(p)
            self.pagetable.set_version(p, version)
            if state is PageState.DIRTY and entry.home != self.id:
                # checkpoints land on seal boundaries, so dirty pages
                # are rare -- but a restored one needs its twin back
                self.pagetable.make_twin(p, self.memory.page_bytes(p))
            self.pagetable.set_state(p, state, "restore")
            if state is PageState.DIRTY:
                self.pagetable.mark_dirty(p)

    def _begin_interval(self) -> Generator[Any, Any, None]:
        if self.restoring:
            return
        self.engine = self._engines[self.mode_at(self.interval_index)]
        yield from self.engine.begin_interval(self)
        yield from self._process_window(0)

    def _process_window(self, window: int) -> Generator[Any, Any, None]:
        """Replay one window: interval start (0) or the n-th acquire."""
        if self.restoring:
            return
        notices = self.plog.select(
            NoticeLogRecord, interval=self.interval_index, window=window
        )
        yield from self.engine.read_window(self, window, notices)
        for rec in notices:
            # a dirty hit is invalidated directly: its diff is at the home
            pages, applied = self._noticed_pages(rec.records)
            for p in pages:
                self.pagetable.invalidate(p)
            self.vt = self.vt.join([r.vt for r in applied])
        yield from self.engine.prefetch(self, window)

    # ------------------------------------------------------------------
    # diff gathering shared by home updates and page reconstruction
    # ------------------------------------------------------------------
    def _gather_diffs(
        self,
        wants_by_writer: Dict[int, List[Tuple[int, int, int]]],
        ranges_by_writer: Optional[Dict[int, List[Tuple[int, int, int]]]] = None,
    ) -> Generator[Any, Any, List[Tuple[Diff, int, int, int, VectorClock]]]:
        """Fetch logged diffs from writers (or our own log), batched.

        ``wants_by_writer`` maps a writer to exact ``(page, interval,
        part)`` triples; ``ranges_by_writer`` to ``(page, lo, hi)``
        interval-range queries (delta reconstruction).  One request per
        writer carries both.
        """
        ranges_by_writer = ranges_by_writer or {}
        entries: List[Tuple[Diff, int, int, int, VectorClock]] = []
        reply_sigs = []
        for writer in sorted(set(wants_by_writer) | set(ranges_by_writer)):
            wants = wants_by_writer.get(writer, [])
            ranges = ranges_by_writer.get(writer, [])
            if not wants and not ranges:
                continue
            if writer == self.id:
                # our own earlier diffs live in the log's diff-data
                # stream, which boundary scans skip: pull them now
                nbytes = 0
                for page, idx, part in wants:
                    d, vt = self.plog.find_own_diff(page, idx, part)
                    entries.append((d, writer, idx, part, vt))
                    nbytes += d.nbytes
                for page, lo, hi in ranges:
                    for d, idx, part, vt in self.plog.find_own_diffs_in_range(
                        page, lo, hi
                    ):
                        entries.append((d, writer, idx, part, vt))
                        nbytes += d.nbytes
                yield from self._disk_read("log_read", nbytes)
            elif not self.timed:
                reply, _rb = self.responders[writer].serve_logdiff(
                    LogDiffRequest(self.id, wants, ranges)
                )
                entries.extend(reply.entries)
            else:
                req = LogDiffRequest(self.id, wants, ranges)
                yield from self.net.send(
                    NetMessage(self.id, writer, "logdiff_req", req, req.nbytes)
                )
                reply_sigs.append(
                    self.net.mailbox(self.id).get(
                        lambda m, w=writer: m.kind == "logdiff_reply" and m.src == w
                    )
                )
        for sig in reply_sigs:
            with self.stats.bracket(self.sim, "prefetch"):
                msg = yield sig
            entries.extend(msg.payload.entries)
        return entries

    def _unsealed(self, entries: List[Tuple[Diff, int, int, int, VectorClock]]
                  ) -> List[Tuple[Diff, int, int, int, VectorClock]]:
        """``entries`` less this node's end-of-interval diffs of the current
        interval: sealed after any fetch in it, though an early diff may
        have carried their clock to the fetched version."""
        now = self.vt[self.id]
        return [e for e in entries
                if not (e[1] == self.id and e[2] == now and e[3] == 0)]

    @staticmethod
    def causal_sort(entries: List[Tuple[Diff, int, int, int, VectorClock]]):
        """Order diff entries along a linear extension of happens-before.

        Sorting by (vt.total, writer, interval, part) is a valid linear
        extension: vt totals strictly grow along happens-before, and
        within one writer interval the early flushes (part >= 1)
        happened before the end-of-interval flush only when their vt
        total is lower -- ties are broken so that a later part applies
        last, matching the original write order.
        """
        return sorted(entries, key=lambda e: (e[4].total, e[1], e[2], -e[3]))


def _replay_victims(
    app,
    config: ClusterConfig,
    protocol: str,
    system_a: DsmSystem,
    plans: Sequence[VictimPlan],
    dead: Iterable[int] = (),
) -> Dict[int, ReplayNode]:
    """Phase B: replay every planned victim, concurrently, in one world.

    Each victim consumes its own log; survivors serve reconstruction
    data from live state; the victims (and the ``dead`` co-victims of a
    zone kill) serve *each other* from their surviving logs.  Returns
    the replay nodes, each with ``finished_at`` set.
    """
    down = {plan.victim for plan in plans} | set(dead)
    check_crash(config.num_nodes, down, *(plan.stop_at for plan in plans))
    mode = _replay_mode(protocol)
    world = RecoveryWorld(config, system_a, down)
    replays = {plan.victim: ReplayNode(world, plan, mode) for plan in plans}
    world.run({f"replay{v}": r.run(app) for v, r in replays.items()})
    for r in replays.values():
        if r.finished_at is None:
            raise RecoveryError(
                f"victim {r.id} never reached its crash point: asked to "
                f"replay to seal {r.stop_at}, but its program ended after "
                f"seal {r.seal_count}"
            )
    return replays


# ======================================================================
# verify, the per-victim stage, and the driver
# ======================================================================


def compare_page(
    p: int, frame: np.ndarray, version: Optional[VectorClock],
    snapshot: FailureSnapshot,
) -> List[str]:
    """One recovered page's contents and version vs the crash snapshot."""
    mismatches: List[str] = []
    if not np.array_equal(frame, snapshot.frames[p]):
        mismatches.append(f"page {p}: contents differ")
    want = snapshot.page_states[p][1]
    if version != want:
        mismatches.append(f"page {p}: version {version} != {want}")
    return mismatches


def compare_state(
    replay: ReplayNode, snapshot: FailureSnapshot, page_size: int
) -> List[str]:
    """Bit-exact comparison of recovered state vs the crash snapshot."""
    mismatches: List[str] = []
    if replay.vt != snapshot.vt:
        mismatches.append(f"vt: {replay.vt} != {snapshot.vt}")
    if replay.interval_index != snapshot.interval_index:
        mismatches.append(
            f"interval_index: {replay.interval_index} != {snapshot.interval_index}"
        )
    for p, (s_state, _ver) in snapshot.page_states.items():
        entry = replay.pagetable.entry(p)
        if entry.state is not s_state:
            mismatches.append(f"page {p}: state {entry.state} != {s_state}")
        elif p in snapshot.frames:  # dead frames carry no meaning: none kept
            mismatches += compare_page(
                p, replay.memory.page_bytes(p), entry.version, snapshot
            )
    return mismatches


def replay_failed_node(
    app,
    config: ClusterConfig,
    protocol: str,
    system_a: DsmSystem,
    failed_node: int,
    plog: StableLog,
    stop_at: int,
    free_until: int = 0,
    checkpoint: Optional[CheckpointSnapshot] = None,
    salvage=None,
    dead: Tuple[int, ...] = (),
) -> Tuple[ReplayNode, float]:
    """Phase B: replay one victim in a fresh simulation, to ``stop_at`` seals.

    The one-victim case of the shared victim loop, for callers that
    built and planned phase A themselves (the model checker, the
    benchmark).  ``plog`` is the log the replay consumes -- the victim's
    full persistent log in the classic seal-aligned experiments, or a
    :meth:`~repro.core.stablelog.StableLog.durable_view` (possibly
    salvaged) at an arbitrary crash instant.  When a
    :class:`~repro.core.salvage.SalvageReport` is supplied, the bytes
    its CRC walk read are charged to the replay.  ``dead`` lists nodes
    down alongside the victim (a zone kill): they answer from their
    logs instead of live state.  Returns the replay node (for state
    verification) and the replay's virtual duration.
    """
    plan = VictimPlan(failed_node, plog, stop_at, free_until, checkpoint, salvage)
    replay = _replay_victims(app, config, protocol, system_a, [plan], dead)[
        failed_node
    ]
    return replay, replay.finished_at


@dataclass
class Promotion:
    """How a promoted victim's home group failed over."""

    #: Follower promoted to primary for the victim's home group.
    promoted: int
    #: Group epoch after the fencing round.
    epoch: int
    #: Seal the promoted follower's mirror covered at the crash.
    mirror_seal: int
    #: Metadata log records replayed onto the mirror.
    replayed_events: int
    #: Diffs re-fetched from writers' logs for the replayed events.
    refetched_diffs: int
    #: Crash-to-declaration latency of the heartbeat detector.
    detection_time: float


@dataclass
class VictimRecovery:
    """One victim's recovery: how far, how long, and how exact."""

    victim: int
    #: The crash-point seal the recovered state is verified against.
    at_seal: int
    #: Virtual seconds to the recovered state (a promotion counts from
    #: failure declaration: detection is in :attr:`Promotion.detection_time`).
    recovery_time: float
    #: Bit-exactness violations; empty means recovered exactly.
    mismatches: List[str]
    #: The recovering node's time breakdown and counters.
    stats: NodeStats
    #: Checkpoint seal replay started timed from (0 = none).
    free_until: int = 0
    #: Salvage scan outcome (arbitrary-instant crashes only).
    salvage: Optional[SalvageReport] = None
    #: Set when a replica was promoted instead of the log replayed.
    promotion: Optional[Promotion] = None


@dataclass
class RecoveryResult:
    """Outcome of one recovery experiment: one record per victim."""

    app_name: str
    protocol: str
    victims: List[VictimRecovery]
    phase_a: RunResult = field(repr=False, default=None)

    @property
    def recovery_time(self) -> float:
        """Wall recovery time: the victims recover concurrently."""
        return max(v.recovery_time for v in self.victims)

    @property
    def ok(self) -> bool:
        """Every victim reached its crash point with bit-exact state."""
        return not any(v.mismatches for v in self.victims)


def _promote(
    config: ClusterConfig, system_a: DsmSystem, plan: VictimPlan,
    down: Iterable[int], at_time: Optional[float],
) -> VictimRecovery:
    from .failover_recovery import compare_mirror, mirror_at, recover_via_failover

    victim = plan.victim
    promoted, epoch, mirror, breakdown, stats, replayed, refetched = (
        recover_via_failover(config, system_a, victim, plan.plog, plan.stop_at,
                             dead=tuple(down), at_time=at_time)
    )
    home_pages = [p for p, h in enumerate(system_a.homes) if h == victim]
    mismatches = compare_mirror(
        mirror, plan.snapshots.get(mirror.seal, plan.snapshot), home_pages,
        config.page_size,
    )
    return VictimRecovery(
        victim, plan.stop_at,
        breakdown["promotion"] + breakdown["meta_replay"]
        + breakdown["diff_refetch"],
        mismatches, stats, plan.free_until, plan.salvage,
        Promotion(promoted, epoch,
                  mirror_at(system_a, victim, promoted, at_time).seal,
                  replayed, refetched, breakdown["detection"]),
    )


def recover_victims(
    app,
    config: ClusterConfig,
    protocol: str,
    system_a: DsmSystem,
    plans: Sequence[VictimPlan],
    dead: Iterable[int] = (),
    at_time: Optional[float] = None,
) -> List[VictimRecovery]:
    """Recover and verify every planned victim; the scheme table says how.

    A ``promotes`` scheme over replicated homes (``system_a.replication
    >= 2``) promotes a surviving replica per victim, with every victim
    and ``dead`` co-victim down, and checks the mirror
    (:func:`~repro.core.failover_recovery.compare_mirror`) against the
    snapshot at the seal the mirror reached; ``at_time`` is the crash
    instant the mirror is taken at (None: the final mirror).  Every
    other case replays the victims concurrently in one world and checks
    each against its plan's snapshot (:func:`compare_state`).
    """
    scheme = SCHEMES.get(protocol)
    if scheme is not None and scheme.promotes and system_a.replication >= 2:
        down = {plan.victim for plan in plans} | set(dead)
        return [_promote(config, system_a, plan, down, at_time) for plan in plans]
    replays = _replay_victims(app, config, protocol, system_a, plans, dead)
    out = []
    for plan in plans:
        replay = replays[plan.victim]
        out.append(VictimRecovery(
            plan.victim, plan.stop_at, replay.finished_at,
            compare_state(replay, plan.snapshot, config.page_size),
            replay.stats, plan.free_until, plan.salvage,
        ))
    return out


def run_recovery_experiment(
    app,
    config: Optional[ClusterConfig] = None,
    protocol: str = "ccl",
    failed_nodes: Sequence[int] = (0,),
    at_seal: Optional[int] = None,
    at_time: Optional[float] = None,
    checkpoint_every: Optional[int] = None,
    retention: Optional[int] = None,
    disk_fault_plan=None,
    replication: int = 1,
    recovery_budget: Optional[float] = None,
) -> RecoveryResult:
    """Crash ``failed_nodes``, recover them all, verify every one bit-exactly.

    The crash point is each victim's final interval by default (the
    paper's setting: maximum work to recover), its ``at_seal``-th seal,
    or one arbitrary virtual instant ``at_time`` for all victims: each
    log is then cut to its crash-time durable view, salvaged when
    ``disk_fault_plan`` is active, and replayed to its own recoverable
    seal (victims may stop at different seals).

    ``checkpoint_every`` enables independent per-node checkpoints every
    that many seals; replay then starts timed execution at the latest
    checkpoint before the crash.
    ``retention`` bounds how many checkpoints each node keeps; retiring
    old ones truncates the log below the oldest retained seal, so replay
    runs in *restore mode* (the checkpoint image is installed verbatim),
    and a victim whose salvaged log no longer covers its window falls
    back to an earlier retained checkpoint (:func:`plan_victim`).
    ``replication`` mirrors every home onto ``k-1`` followers, which a
    promoting scheme recovers through (:func:`recover_victims`).

    Several victims recover concurrently.  ML replays purely locally;
    CCL needs the failed-node responders, which exist because CCL
    writers log their outgoing diffs durably.  Everything refusable is
    refused in one line before phase A runs.
    """
    config = config or ClusterConfig.ultra5()
    victims = tuple(failed_nodes)
    _replay_mode(protocol)
    if not victims or len(set(victims)) != len(victims):
        raise RecoveryError(
            f"bad failed-node set {victims}: name at least one victim, once"
        )
    check_crash(config.num_nodes, victims,
                *(() if at_seal is None else (at_seal,)))
    if at_seal is not None and at_time is not None:
        raise ConfigError("crash at_seal or at_time, not both")
    if retention is not None and not checkpoint_every:
        raise ConfigError(
            "retention bounds the checkpoints a node keeps, so it needs "
            "checkpoint_every"
        )
    validate_replication(replication, config.num_nodes)
    if SCHEMES[protocol].promotes and replication >= 2 and at_seal is not None:
        raise ConfigError(
            f"{protocol} promotes the mirror a crash leaves behind, which is "
            "kept per instant, not per seal: crash at_time, or at the final seal"
        )
    system_a = DsmSystem(
        app, config,
        make_hooks_factory(protocol, recovery_budget=recovery_budget),
        disk_fault_plan=disk_fault_plan, replication=replication,
    )
    probes = {
        v: CrashProbe(v, at_seal, capture_all=at_time is not None)
        for v in victims
    }
    for probe in probes.values():
        system_a.add_probe(probe)
    if checkpoint_every:
        for node in system_a.nodes:
            node.checkpointer = Checkpointer(checkpoint_every, retention)
    result_a = system_a.run()
    for probe in probes.values():
        probe.finalize()
    plans = [plan_victim(system_a, probes[v], at_time) for v in victims]
    for plan in plans:
        if plan.stop_at < 1:
            raise RecoveryError(
                f"victim {plan.victim}: nothing recoverable at "
                f"t={at_time!r} ({plan.salvage.describe()})"
            )
    return RecoveryResult(
        getattr(app, "name", type(app).__name__), protocol,
        recover_victims(app, config, protocol, system_a, plans,
                        at_time=at_time),
        result_a,
    )
