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
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

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
from .recovery import VictimPlan, plan_victim, recover_victims
from .replication import validate_replication

__all__ = ["ChaosCase", "ChaosFaults", "ChaosReport", "run_chaos_run",
           "run_chaos_suite"]

#: Default fault rates: high enough that every run sees drops,
#: duplicates, delays, and reordering, low enough that the transport's
#: bounded retry (p**(max_retries+1) residual loss) never gives up on a
#: live peer.
DEFAULT_RATES = {"drop": 0.08, "dup": 0.08, "delay": 0.12, "reorder": 0.12}


@dataclass(frozen=True)
class ChaosFaults:
    """Everything a chaos run injects, as one value.

    :meth:`validate` refuses what the cluster or protocol cannot run,
    before anything executes; :meth:`expand` builds one execution's
    plans from a seed; :meth:`flags` renders the CLI flags that rebuild
    it.  Each field is named after its ``repro chaos`` flag and defaults
    to that flag's default.
    """

    #: Per-message network fault probabilities (``FaultPlan.uniform``).
    drop: float = DEFAULT_RATES["drop"]
    dup: float = DEFAULT_RATES["dup"]
    delay_rate: float = DEFAULT_RATES["delay"]
    reorder: float = DEFAULT_RATES["reorder"]
    #: Storage fault probabilities (``DiskFaultPlan.uniform``); all zero
    #: keeps the plan-free, byte-identical disk path.
    disk_torn: float = 0.0
    disk_write_error: float = 0.0
    disk_bitrot: float = 0.0
    #: Home replication factor: every home mirrored onto ``k-1`` followers.
    replication: int = 1
    #: Kill every node of this zone at one seeded instant.
    zone_kill: Optional[int] = None
    #: Partition these two zones from each other for a seeded window.
    zone_partition: Optional[Tuple[int, int]] = None

    @property
    def disk_faulty(self) -> bool:
        return max(self.disk_torn, self.disk_write_error, self.disk_bitrot) > 0

    def validate(self, config: ClusterConfig, protocol: str) -> None:
        """Refuse a fault model ``config`` or ``protocol`` cannot run."""
        validate_replication(self.replication, config.num_nodes)
        zones = sorted(set(config.zones)) if config.zones is not None else [0]
        for z in (self.zone_kill, *(self.zone_partition or ())):
            if z is not None and z not in zones:
                raise ConfigError(
                    f"unknown zone {z}; the cluster has zones {zones}"
                )
        if self.zone_partition is not None and len(set(self.zone_partition)) < 2:
            raise ConfigError(
                f"zone-partition sides must differ, got {self.zone_partition}"
            )
        if self.zone_kill is not None and config.num_zones == 1:
            raise ConfigError(
                f"zone-kill {self.zone_kill} would kill every node; "
                "at least one zone must survive"
            )
        if SCHEMES[protocol].promotes and self.replication < 2:
            raise ConfigError(
                f"the {protocol} protocol promotes a surviving replica, so "
                f"it needs replication >= 2 (got {self.replication}); pass "
                "--replication 2 or higher"
            )

    def expand(self, config: ClusterConfig, seed: int,
               victims: Sequence[int] = (), kill_time: Optional[float] = None,
               window: Optional[Tuple[float, float]] = None,
               ) -> Tuple[FaultPlan, Optional[DiskFaultPlan]]:
        """One execution's plans: ``victims`` die at ``kill_time`` and
        the partitioned zones are cut off from each other during
        ``window``.  Build them fresh per execution: write-error draws
        are event-ordered."""
        plan = FaultPlan.uniform(seed, drop=self.drop, dup=self.dup,
                                 delay=self.delay_rate, reorder=self.reorder)
        if kill_time is not None:
            for victim in victims:
                plan.kill(victim, kill_time)
        if window is not None:
            za, zb = self.zone_partition
            plan.partition(config.nodes_in_zone(za), config.nodes_in_zone(zb),
                           *window)
        disk = None
        if self.disk_faulty:
            disk = DiskFaultPlan.uniform(seed, torn_tail=self.disk_torn,
                                         write_error=self.disk_write_error,
                                         bitrot=self.disk_bitrot)
        return plan, disk

    def flags(self, config: ClusterConfig) -> List[str]:
        """The CLI flags that rebuild this model on ``config``'s cluster:
        its size and zones, then every field off its default."""
        out = [f"--nodes {config.num_nodes}"]
        if config.zones is not None:
            out.append(f"--zones {config.num_zones}")
            if config.zone_wan_latency_s > 0:
                out.append(f"--zone-wan {config.zone_wan_latency_s!r}")
        for f in fields(self):
            value = getattr(self, f.name)
            if value != f.default:
                if isinstance(value, tuple):  # "A,B", as the CLI parses it
                    value = ",".join(map(str, value))
                out.append(f"--{f.name.replace('_', '-')} {value}")
        return out


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
    #: The rest of the repro command line: the caller's flags (scale),
    #: then the run's cluster, fault model and sanitizer flags.
    repro_extra: str = ""
    #: Salvage-scan summary for this crash instant (disk faults only).
    salvage: str = ""
    #: The fault model and sanitizer setting the case ran under.
    faults: ChaosFaults = ChaosFaults()
    sanitize: bool = False

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
    """Aggregate outcome of a chaos suite (or of one run)."""

    cases: List[ChaosCase] = field(default_factory=list)
    #: Injected-fault totals across all runs.
    fault_totals: Dict[str, int] = field(default_factory=dict)
    #: Transport totals (retransmits, dups dropped, ...) across all runs.
    transport_totals: Dict[str, int] = field(default_factory=dict)
    #: ``FaultPlan.describe()`` of every run's faulted execution.
    plans: List[str] = field(default_factory=list)

    @property
    def failures(self) -> List[ChaosCase]:
        return [c for c in self.cases if not c.ok]

    @property
    def ok(self) -> bool:
        return bool(self.cases) and not self.failures

    def merge(self, other: "ChaosReport") -> None:
        """Fold another report (typically one run's) into this one."""
        self.cases.extend(other.cases)
        self.plans.extend(other.plans)
        for totals, more in ((self.fault_totals, other.fault_totals),
                             (self.transport_totals, other.transport_totals)):
            for k, v in more.items():
                totals[k] = totals.get(k, 0) + v

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


def _diagnosable(exc: Optional[BaseException]) -> Optional[BaseException]:
    # errors raised inside spawned sim processes arrive wrapped in
    # SimulationError; walk the cause chain for the storage fault
    while exc is not None:
        if isinstance(exc, (StorageFaultError, RecoveryError,
                            LoggingProtocolError)):
            return exc
        exc = exc.__cause__
    return None


def _run_problem(system: DsmSystem, result: Any, lethal: bool,
                 tracer: Optional[Tracer]) -> str:
    """Oracle over the faulted execution itself ("" when it passes).

    The application result proves reliable delivery: faults must not
    change what the program computes.  A live-killed run may still
    complete when the kill lands after the victims' last contribution
    (survivors no longer need them) -- then the results must be
    correct; otherwise the survivors must have stalled.  A sanitized
    run's ``tracer`` must also satisfy the invariant catalogue.
    """
    if result.completed:
        verify = getattr(system.app, "verify", None)
        if verify is not None and not verify(system):
            return "faulted run computed wrong results"
    elif not lethal:
        return "faulted run did not complete"
    if tracer is not None:
        from ..analysis import check_trace

        report = check_trace(tracer)
        if not report.ok:
            return f"sanitizer: {report.violations[0]}"
    return ""


def _recover(config: ClusterConfig, protocol: str, system_a: DsmSystem,
             vplan: VictimPlan, dead: Sequence[int], at_time: float,
             excused: bool) -> Tuple[bool, str, List[str]]:
    """Scheme stage: recover one victim, returning ``(ok, detail,
    mismatches)``.  A diagnosed error passes iff ``excused``; anything
    undiagnosed propagates."""
    try:
        (rec,) = recover_victims(system_a.app, config, protocol, system_a,
                                 [vplan], dead=dead, at_time=at_time)
    except (RecoveryError, LoggingProtocolError, SimulationError) as exc:
        cause = _diagnosable(exc)
        if cause is None:
            raise
        if excused:
            return True, f"diagnosed: {cause}", []
        return False, f"replay error: {cause}", []
    if not rec.mismatches:
        return True, "", []
    what = (f"mirror mismatch (promoted {rec.promotion.promoted})"
            if rec.promotion else "state mismatch")
    return False, what, rec.mismatches


def run_chaos_run(
    app_factory: Callable[[], Any],
    config: ClusterConfig,
    protocol: str,
    seed: int,
    crash_points: int = 5,
    crash_node: Optional[int] = None,
    crash_times: Optional[List[float]] = None,
    live_kill: bool = False,
    faults: ChaosFaults = ChaosFaults(),
    sanitize: bool = False,
    app_name: Optional[str] = None,
    repro_extra: str = "",
    tracer: Optional[Tracer] = None,
) -> ChaosReport:
    """One faulted phase-A execution plus its crash-instant recoveries.

    ``crash_node`` and ``crash_times`` (virtual seconds) pin the victim
    and the crash instants -- the repro path for a reported failure; a
    pin overrides its seeded draw without skipping it.  With
    ``live_kill`` the victim is killed at the (single) crash time instead
    of being probed past it.  ``repro_extra`` holds the flags a run
    cannot know (the app's scale).  The run composes four stages:

    1. **fault plan**: ``faults`` is validated, a pilot execution sizes
       the kill instant and the partition window, and
       :meth:`ChaosFaults.expand` builds phase A's plans;
    2. **crash instants**: the pins, the kill instant, or seeded draws;
    3. **scheme**: :func:`~repro.core.recovery.recover_victims`; a
       diagnosed error (named storage damage, a failover quorum-loss
       refusal) is a pass iff the scheme promotes or the disks are faulty;
    4. **oracle**: the run completes (or a kill stalled it),
       ``app.verify`` and the sanitizer pass, and every recovery is
       bit-exact -- a silent wrong-memory result is the only failure.
    """
    hooks_factory = make_hooks_factory(protocol)  # refuses unknown names
    faults.validate(config, protocol)
    # decorrelated from the FaultPlan's own stream (same seed feeds both)
    rng = random.Random(seed ^ 0x9E3779B9)
    if app_name is None:
        app = app_factory()
        app_name = str(getattr(app, "name", type(app).__name__)).lower()
    if faults.zone_kill is not None:
        victims = list(config.nodes_in_zone(faults.zone_kill))
    else:
        # drawn even when pinned, so that a repro command's pin leaves
        # the later draws (kill instant, partition window) in place
        drawn = rng.randrange(config.num_nodes)
        victims = [drawn if crash_node is None else crash_node]
    lethal = live_kill or faults.zone_kill is not None
    extra = " ".join(filter(None, [repro_extra, *faults.flags(config),
                                   "--sanitize" if sanitize else ""]))
    cases: List[ChaosCase] = []

    def verdict(node: int, t: float, stop_at: int, ok: bool, detail: str,
                mismatches: Sequence[str] = (), salvage: str = "") -> None:
        cases.append(ChaosCase(
            app_name, protocol, seed, node, t, stop_at, live_kill, ok,
            detail, list(mismatches), extra, salvage, faults, sanitize,
        ))

    def build(kill_time: Optional[float] = None,
              window: Optional[Tuple[float, float]] = None,
              tracer: Optional[Tracer] = None) -> DsmSystem:
        plan, disk = faults.expand(config, seed, victims, kill_time, window)
        return DsmSystem(app_factory(), config, hooks_factory, tracer=tracer,
                         fault_plan=plan, disk_fault_plan=disk,
                         replication=faults.replication)

    def execute(system: DsmSystem,
                window: Optional[Tuple[float, float]] = None) -> Any:
        """Run the pilot or phase A; None when it ended in a verdict."""
        try:
            return system.run()
        except (StorageFaultError, SimulationError) as exc:
            cause = _diagnosable(exc)
            if cause is not None and faults.disk_faulty:
                # fail-fast with a named cause is a *pass* under disk
                # faults: the contract is bit-exact or loudly refused
                verdict(victims[0], 0.0, 0, True, f"diagnosed: {cause}")
            elif window is not None and isinstance(exc, DeadlockError):
                # the partition window outlived the transport's patience;
                # a stall is loud (liveness, not corruption) but still a
                # reportable failure of the ride-it-out contract
                verdict(victims[0], window[0], 0, False,
                        f"zone partition stalled the run: {exc}")
            else:
                raise
            return None

    def report(system: DsmSystem, transport: Any) -> ChaosReport:
        totals = transport.summary() if hasattr(transport, "summary") else {}
        return ChaosReport(cases, system.fault_plan.summary(), dict(totals),
                           [system.fault_plan.describe()])

    # ---- 1. fault plan: kill instants and partition windows must be --
    # ---- sampled inside the run, so a pilot execution sizes them -----
    kill_time: Optional[float] = None
    window: Optional[Tuple[float, float]] = None
    if lethal or faults.zone_partition is not None:
        pilot = build()
        result = execute(pilot)
        if result is None:
            return report(pilot, None)
        if lethal:
            kill_time = rng.uniform(0.15, 0.85) * result.total_time
            if crash_times:
                kill_time = crash_times[0]
        if faults.zone_partition is not None:
            # a window the bounded-retransmit transport can ride out:
            # it heals well before the run would abandon live peers
            start = rng.uniform(0.2, 0.5) * result.total_time
            window = (start, start + rng.uniform(0.05, 0.15) * result.total_time)
    if tracer is None and sanitize:
        tracer = Tracer(enabled=True)
    system_a = build(kill_time, window, tracer)
    probes = {v: CrashProbe(v, capture_all=True) for v in victims}
    for p in probes.values():
        system_a.add_probe(p)
    result_a = execute(system_a, window)
    if result_a is None:
        return report(system_a, system_a.transport)
    problem = _run_problem(system_a, result_a, lethal,
                           tracer if sanitize else None)
    if problem:
        verdict(victims[0], kill_time or 0.0, 0, False, problem)
        return report(system_a, system_a.transport)

    # ---- 2. crash instants --------------------------------------------
    if crash_times:
        instants = list(crash_times)
    elif kill_time is not None:
        instants = [kill_time]
    else:
        instants = sorted(rng.uniform(0.0, result_a.total_time)
                          for _ in range(crash_points))

    # ---- 3. scheme and 4. oracle, per victim per instant -------------
    excused = SCHEMES[protocol].promotes or faults.disk_faulty
    for t in instants:
        for v in victims:
            # what a crash at t leaves on disk, and the highest seal it
            # can be rebuilt to: one planner shared with the experiments
            vplan = plan_victim(system_a, probes[v], t)
            salvage = vplan.salvage.describe() if faults.disk_faulty else ""
            if vplan.stop_at < 1:
                # nothing recoverable was sealed: recovery degenerates
                # to a restart from the initial checkpoint, trivially
                # bit-exact
                verdict(v, t, 0, True, "restart-from-checkpoint",
                        salvage=salvage)
                continue
            verdict(v, t, vplan.stop_at,
                    *_recover(config, protocol, system_a, vplan, victims, t,
                              excused),
                    salvage=salvage)
    return report(system_a, system_a.transport)


def run_chaos_suite(
    app_factories: Dict[str, Callable[[], Any]],
    config: ClusterConfig,
    protocols: Tuple[str, ...] = ("ccl", "ml"),
    seeds: int = 10,
    first_seed: int = 0,
    crash_points: int = 5,
    kill_every: int = 4,
    faults: ChaosFaults = ChaosFaults(),
    sanitize: bool = False,
    fail_fast: bool = False,
    repro_extra: str = "",
) -> ChaosReport:
    """The full property suite: apps x protocols x seeds x crash instants.

    Every ``kill_every``-th seed of each (app, protocol) pair becomes a
    live-kill case (victim processes die mid-run, in-flight frames
    discarded); the rest are probe-based and amortise ``crash_points``
    crash instants over one faulted execution.  Every run injects
    ``faults``; a zone kill makes *every* seed a zone-kill case (the
    whole fault domain dies at a seeded instant; the per-seed live-kill
    cadence is subsumed).
    """
    report = ChaosReport()
    for app_name, factory in sorted(app_factories.items()):
        for protocol in protocols:
            for i in range(seeds):
                live = (
                    kill_every > 0
                    and i % kill_every == kill_every - 1
                    and faults.zone_kill is None
                )
                report.merge(run_chaos_run(
                    factory, config, protocol, first_seed + i,
                    crash_points=crash_points, live_kill=live, faults=faults,
                    sanitize=sanitize, app_name=app_name,
                    repro_extra=repro_extra,
                ))
                if fail_fast and report.failures:
                    return report
    return report
