"""Seeded chaos suite: random faults x random crash instants, bit-exact recovery.

Each chaos *run* executes one application under a seeded
:class:`~repro.sim.faults.FaultPlan` (drops, duplicates, delays,
reordering) with a :class:`~repro.core.failure.CrashProbe` in
``capture_all`` mode, so one faulted phase-A execution yields a snapshot
at every seal.  The driver then samples several *crash instants* --
arbitrary virtual times, deliberately not aligned with seals -- and for
each one:

1. truncates the victim's log to what a crash at that instant would
   leave on disk (:meth:`~repro.core.stablelog.StableLog.durable_view`);
2. computes the highest recoverable seal ``k*``: the victim cannot be
   reconstructed past the last seal it completed, nor past the first
   log bundle with a lost record;
3. recovers the victim from the truncated log through the experiments'
   own per-victim stage (:func:`~repro.core.recovery.recover_victims`),
   which verifies the recovered memory image, page states, versions,
   and vector clock bit-for-bit against the phase-A snapshot at ``k*``.

``kill`` cases additionally crash the victim **live** mid-run: its
processes die, its queued NIC frames and in-flight deliveries are
discarded, the survivors stall, and recovery is verified from the
killed run's own durable log.

Zone-scoped faults extend the same discipline to whole fault domains:
``zone_kill`` live-kills every node of one zone at a seeded instant and
verifies each victim's recovery with its co-victims dead;
``zone_partition`` isolates two zones from each other for a seeded
window (the reliable transport must ride the outage out).  Under the
``failover`` protocol with ``replication >= 2``, the same stage
promotes a surviving replica and replays only the coherence-metadata
suffix, and the contract becomes *bit-exact failover or a diagnosed
refusal when the quorum is lost*; a silent wrong-memory result is the
only failure.

Everything is derived from one integer seed, so a failing case is
reproducible from the one-line command the report prints.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..config import ClusterConfig
from ..dsm.system import DsmSystem
from ..errors import (
    ConfigError,
    DeadlockError,
    LoggingProtocolError,
    RecoveryError,
    SimulationError,
    StorageFaultError,
)
from ..sim.faults import DiskFaultPlan, FaultPlan
from ..sim.trace import Tracer
from .failure import CrashProbe
from .logging_base import SCHEMES, make_hooks_factory
from .recovery import plan_victim, recover_victims
from .replication import ZoneFaultSpec, validate_replication

__all__ = ["ChaosCase", "ChaosReport", "run_chaos_run", "run_chaos_suite"]

#: Default fault rates: high enough that every run sees drops,
#: duplicates, delays, and reordering, low enough that the transport's
#: bounded retry (p**(max_retries+1) residual loss) never gives up on a
#: live peer.
DEFAULT_RATES = {"drop": 0.08, "dup": 0.08, "delay": 0.12, "reorder": 0.12}


@dataclass
class ChaosCase:
    """One (app, protocol, fault schedule, crash instant) verification."""

    app: str
    protocol: str
    seed: int
    crash_node: int
    crash_time: float
    stop_at: int
    live_kill: bool
    ok: bool
    detail: str = ""
    mismatches: List[str] = field(default_factory=list)
    #: Extra CLI flags (scale, cluster size, zones, replication) needed
    #: to reproduce.
    repro_extra: str = ""
    #: Salvage-scan summary for this crash instant (disk faults only).
    salvage: str = ""

    def repro_command(self) -> str:
        """One-line command reproducing exactly this case."""
        cmd = (
            f"python -m repro chaos --apps {self.app} "
            f"--protocols {self.protocol} --seed {self.seed} "
            f"--crash-time {self.crash_time!r} --crash-node {self.crash_node}"
        )
        if self.live_kill:
            cmd += " --live-kill"
        if self.repro_extra:
            cmd += f" {self.repro_extra}"
        return cmd


@dataclass
class ChaosReport:
    """Aggregate outcome of a chaos suite."""

    cases: List[ChaosCase] = field(default_factory=list)
    #: Injected-fault totals across all runs.
    fault_totals: Dict[str, int] = field(default_factory=dict)
    #: Transport totals (retransmits, dups dropped, ...) across all runs.
    transport_totals: Dict[str, int] = field(default_factory=dict)

    @property
    def failures(self) -> List[ChaosCase]:
        return [c for c in self.cases if not c.ok]

    @property
    def ok(self) -> bool:
        return bool(self.cases) and not self.failures

    def merge_totals(self, plan: FaultPlan, transport: Any) -> None:
        for k, v in plan.summary().items():
            self.fault_totals[k] = self.fault_totals.get(k, 0) + v
        if transport is not None and hasattr(transport, "summary"):
            for k, v in transport.summary().items():
                self.transport_totals[k] = self.transport_totals.get(k, 0) + v

    def render(self) -> str:
        lines = [
            f"chaos: {len(self.cases)} cases, "
            f"{len(self.cases) - len(self.failures)} passed, "
            f"{len(self.failures)} failed",
            f"  faults injected: {self.fault_totals}",
            f"  transport: {self.transport_totals}",
        ]
        for c in self.failures:
            lines.append(
                f"  FAIL seed={c.seed} plan=({c.app},{c.protocol}) "
                f"crash=({c.crash_node}@{c.crash_time:.6g}) "
                f"stop_at={c.stop_at}: {c.detail or c.mismatches}"
            )
            lines.append(f"    {c.repro_command()}")
        return "\n".join(lines)


def _case_rng(seed: int) -> random.Random:
    # decorrelated from the FaultPlan's own stream (same seed feeds both)
    return random.Random(seed ^ 0x9E3779B9)


def _zone_repro_flags(
    config: ClusterConfig,
    replication: int,
    zone_kill: Optional[int],
    zone_partition: Optional[Tuple[int, int]],
) -> List[str]:
    """Extra CLI flags reproducing the replication/zone setup."""
    flags: List[str] = []
    if replication > 1:
        flags.append(f"--replication {replication}")
    if config.zones is not None:
        flags.append(f"--zones {config.num_zones}")
        if config.zone_wan_latency_s > 0:
            flags.append(f"--zone-wan {config.zone_wan_latency_s:g}")
    if zone_kill is not None:
        flags.append(f"--zone-kill {zone_kill}")
    if zone_partition is not None:
        flags.append(f"--zone-partition {zone_partition[0]},{zone_partition[1]}")
    return flags


def run_chaos_run(
    app_factory: Callable[[], Any],
    config: ClusterConfig,
    protocol: str,
    seed: int,
    crash_points: int = 5,
    crash_node: Optional[int] = None,
    crash_times: Optional[List[float]] = None,
    live_kill: bool = False,
    rates: Optional[Dict[str, float]] = None,
    disk_rates: Optional[Dict[str, float]] = None,
    sanitize: bool = False,
    app_name: Optional[str] = None,
    repro_extra: str = "",
    tracer: Optional[Tracer] = None,
    replication: int = 1,
    zone_kill: Optional[int] = None,
    zone_partition: Optional[Tuple[int, int]] = None,
) -> Tuple[List[ChaosCase], FaultPlan, Any]:
    """One faulted phase-A execution plus its crash-instant recoveries.

    Returns ``(cases, fault_plan, transport)``.  ``crash_times`` (virtual
    seconds) overrides the seeded sampling -- the repro path for a
    reported failure.  With ``live_kill`` the victim is killed at the
    (single) crash time instead of being probed past it.  ``disk_rates``
    (``torn_tail`` / ``write_error`` / ``bitrot``) adds a seeded
    :class:`~repro.sim.faults.DiskFaultPlan`: flushes retry transient
    write errors, each crash instant's durable view goes through the
    salvage scan, and recovery must then be bit-exact over the salvaged
    log *or* fail with a diagnosed error naming the damage -- a silent
    wrong-memory result is the only failure.

    ``replication`` mirrors every home onto ``k-1`` followers;
    ``zone_kill`` live-kills a whole fault domain at a seeded instant
    and recovers every victim with its co-victims dead;
    ``zone_partition`` isolates two zones for a seeded window mid-run.
    Zone faults are validated (:class:`ZoneFaultSpec`) before anything
    executes.  The ``failover`` protocol (requires ``replication >= 2``)
    recovers through replica promotion instead of classic replay, and a
    diagnosed quorum-loss refusal counts as a pass.
    """
    rng = _case_rng(seed)
    rates = dict(rates or DEFAULT_RATES)
    disk_rates = {k: v for k, v in (disk_rates or {}).items() if v > 0}

    validate_replication(replication, config.num_nodes)
    spec = ZoneFaultSpec(zone_kill=zone_kill, zone_partition=zone_partition)
    if spec.any:
        spec.validate(config)
    hooks_factory = make_hooks_factory(protocol)  # refuses unknown names
    promotes = SCHEMES[protocol].promotes
    if promotes and replication < 2:
        raise ConfigError(
            f"the {protocol} protocol promotes a surviving replica, so it "
            f"needs replication >= 2 (got {replication}); pass "
            "--replication 2 or higher"
        )
    repro_extra = " ".join(
        ([repro_extra] if repro_extra else [])
        + _zone_repro_flags(config, replication, zone_kill, zone_partition)
    )

    def _disk_plan() -> Optional[DiskFaultPlan]:
        # fresh per execution: write-error draws are event-ordered
        return DiskFaultPlan.uniform(seed, **disk_rates) if disk_rates else None

    def _diagnosable(exc: BaseException) -> Optional[BaseException]:
        # errors raised inside spawned sim processes arrive wrapped in
        # SimulationError; walk the cause chain for the storage fault
        while exc is not None:
            if isinstance(exc, (StorageFaultError, RecoveryError,
                                LoggingProtocolError)):
                return exc
            exc = exc.__cause__
        return None
    if app_name is None:
        app = app_factory()
        app_name = str(getattr(app, "name", type(app).__name__)).lower()
    if zone_kill is not None:
        victims = list(config.nodes_in_zone(zone_kill))
        victim = victims[0]
    else:
        victim = (
            crash_node
            if crash_node is not None
            else rng.randrange(config.num_nodes)
        )
        victims = [victim]
    lethal = live_kill or zone_kill is not None

    def build(plan: FaultPlan, tracer: Optional[Tracer] = None) -> DsmSystem:
        return DsmSystem(
            app_factory(),
            config,
            hooks_factory,
            tracer=tracer,
            fault_plan=plan,
            disk_fault_plan=_disk_plan(),
            replication=replication,
        )

    def case(node: int, t: float, stop_at: int, ok: bool, detail: str = "",
             mismatches=(), salvage: str = "") -> ChaosCase:
        return ChaosCase(
            app_name, protocol, seed, node, t, stop_at, live_kill, ok,
            detail, list(mismatches), repro_extra=repro_extra,
            salvage=salvage,
        )

    def diagnosed(node: int, t: float, stop_at: int, exc: BaseException,
                  salvage: str = "") -> ChaosCase:
        # fail-fast with a named cause is a *pass* under disk faults and
        # under failover quorum loss: the contract is bit-exact or
        # loudly refused, never silent
        return case(node, t, stop_at, True, f"diagnosed: {exc}",
                    salvage=salvage)

    def fail(node: int, t: float, stop_at: int, detail: str,
             mismatches=(), salvage: str = "") -> ChaosCase:
        return case(node, t, stop_at, False, detail, mismatches, salvage)

    # ---- pilot duration: kill times and partition windows must be ----
    # ---- sampled inside the run --------------------------------------
    kill_time: Optional[float] = None
    part_window: Optional[Tuple[float, float]] = None
    if lethal or zone_partition is not None:
        pilot_plan = FaultPlan.uniform(seed, **rates)
        try:
            pilot = build(pilot_plan).run()
        except (StorageFaultError, SimulationError) as exc:
            cause = _diagnosable(exc)
            if not disk_rates or cause is None:
                raise
            return [diagnosed(victim, 0.0, 0, cause)], pilot_plan, None
        if lethal:
            kill_time = rng.uniform(0.15, 0.85) * pilot.total_time
            if crash_times:
                kill_time = crash_times[0]
        if zone_partition is not None:
            # a window the bounded-retransmit transport can ride out:
            # it heals well before the run would abandon live peers
            start = rng.uniform(0.2, 0.5) * pilot.total_time
            width = rng.uniform(0.05, 0.15) * pilot.total_time
            part_window = (start, start + width)

    plan = FaultPlan.uniform(seed, **rates)
    if kill_time is not None:
        if zone_kill is not None:
            plan.kill_zone(victims, kill_time)
        else:
            plan.kill(victim, kill_time)
    if part_window is not None:
        za, zb = zone_partition
        plan.partition(
            config.nodes_in_zone(za), config.nodes_in_zone(zb),
            part_window[0], part_window[1],
        )
    if tracer is None and sanitize:
        tracer = Tracer(enabled=True)
    system_a = build(plan, tracer)
    app, disk_plan = system_a.app, system_a.disk_fault_plan
    probes = {v: CrashProbe(v, capture_all=True) for v in victims}
    for p in probes.values():
        system_a.add_probe(p)
    try:
        result_a = system_a.run()
    except (StorageFaultError, SimulationError) as exc:
        cause = _diagnosable(exc)
        if cause is not None and disk_plan is not None:
            return [diagnosed(victim, 0.0, 0, cause)], plan, system_a.transport
        if zone_partition is not None and isinstance(exc, DeadlockError):
            # the partition window outlived the transport's patience; a
            # stall is loud (liveness, not corruption) but still a
            # reportable failure of the ride-it-out contract
            return (
                [fail(victim, part_window[0] if part_window else 0.0, 0,
                      f"zone partition stalled the run: {exc}")],
                plan, system_a.transport,
            )
        raise

    cases: List[ChaosCase] = []

    # the application result itself proves reliable delivery: faults
    # must not change what the program computes.  A live-killed run may
    # still complete when the kill lands after the victims' last
    # contribution (survivors no longer need them) -- then the results
    # must be correct; otherwise the survivors must have stalled.
    if result_a.completed:
        verify = getattr(app, "verify", None)
        if verify is not None and not verify(system_a):
            cases.append(fail(victim, kill_time or 0.0, 0,
                              "faulted run computed wrong results"))
            return cases, plan, system_a.transport
    elif not lethal:
        cases.append(fail(victim, 0.0, 0, "faulted run did not complete"))
        return cases, plan, system_a.transport

    if sanitize and tracer is not None:
        from ..analysis import check_trace

        report = check_trace(tracer)
        if not report.ok:
            cases.append(
                fail(victim, 0.0, 0, f"sanitizer: {report.violations[0]}")
            )
            return cases, plan, system_a.transport

    # ---- sample crash instants and verify recovery at each -----------
    horizon = kill_time if kill_time is not None else result_a.total_time
    if crash_times:
        instants = list(crash_times)
    elif lethal:
        instants = [kill_time or 0.0]
    else:
        instants = sorted(rng.uniform(0.0, horizon) for _ in range(crash_points))

    faulty_disks = disk_plan is not None and disk_plan.active
    for t in instants:
        for v in victims:
            # what a crash at t leaves on disk, and the highest seal it
            # can be rebuilt to: one planner shared with the experiments
            vplan = plan_victim(system_a, probes[v], t)
            stop_at = vplan.stop_at
            salv = vplan.salvage.describe() if faulty_disks else ""
            if stop_at < 1:
                # nothing recoverable was sealed: recovery degenerates
                # to a restart from the initial checkpoint, trivially
                # bit-exact
                cases.append(case(v, t, 0, True, "restart-from-checkpoint",
                                  salvage=salv))
                continue
            # the chaos driver probes many counterfactual crash instants
            # of one phase-A run, so the (shared, mutable) group fencing
            # state is restored after each promotion -- a real failover
            # would of course leave it in place
            grp = system_a.replica_groups.get(v)
            saved = None if grp is None else (grp.promoted, grp.epoch)
            try:
                (rec,) = recover_victims(app, config, protocol, system_a,
                                         [vplan], dead=victims, at_time=t)
            except (RecoveryError, LoggingProtocolError,
                    SimulationError) as exc:
                cause = _diagnosable(exc)
                if cause is None:
                    raise
                if promotes or faulty_disks:
                    cases.append(diagnosed(v, t, stop_at, cause, salvage=salv))
                else:
                    cases.append(
                        fail(v, t, stop_at, f"replay error: {cause}")
                    )
                continue
            finally:
                if grp is not None:
                    grp.promoted, grp.epoch = saved
            what = (f"mirror mismatch (promoted {rec.promotion.promoted})"
                    if rec.promotion else "state mismatch")
            cases.append(
                case(v, t, stop_at, not rec.mismatches,
                     what if rec.mismatches else "", rec.mismatches, salv)
            )
    return cases, plan, system_a.transport


def run_chaos_suite(
    app_factories: Dict[str, Callable[[], Any]],
    config: ClusterConfig,
    protocols: Tuple[str, ...] = ("ccl", "ml"),
    seeds: int = 10,
    first_seed: int = 0,
    crash_points: int = 5,
    kill_every: int = 4,
    rates: Optional[Dict[str, float]] = None,
    disk_rates: Optional[Dict[str, float]] = None,
    sanitize: bool = False,
    fail_fast: bool = False,
    repro_extra: str = "",
    replication: int = 1,
    zone_kill: Optional[int] = None,
    zone_partition: Optional[Tuple[int, int]] = None,
) -> ChaosReport:
    """The full property suite: apps x protocols x seeds x crash instants.

    Every ``kill_every``-th seed of each (app, protocol) pair becomes a
    live-kill case (victim processes die mid-run, in-flight frames
    discarded); the rest are probe-based and amortise ``crash_points``
    crash instants over one faulted execution.  ``zone_kill`` makes
    *every* seed a zone-kill case (the whole fault domain dies at a
    seeded instant; the per-seed live-kill cadence is subsumed);
    ``zone_partition`` adds a seeded two-zone partition window to each
    run.  ``replication`` runs every case over quorum-replicated homes.
    """
    report = ChaosReport()
    for app_name, factory in sorted(app_factories.items()):
        for protocol in protocols:
            for i in range(seeds):
                seed = first_seed + i
                live = (
                    kill_every > 0
                    and i % kill_every == kill_every - 1
                    and zone_kill is None
                )
                cases, plan, transport = run_chaos_run(
                    factory, config, protocol, seed,
                    crash_points=crash_points,
                    live_kill=live,
                    rates=rates,
                    disk_rates=disk_rates,
                    sanitize=sanitize,
                    app_name=app_name,
                    repro_extra=repro_extra,
                    replication=replication,
                    zone_kill=zone_kill,
                    zone_partition=zone_partition,
                )
                report.cases.extend(cases)
                report.merge_totals(plan, transport)
                if fail_fast and report.failures:
                    return report
    return report
