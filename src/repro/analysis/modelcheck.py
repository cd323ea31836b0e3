"""Small-scope model checking of the coherence/logging protocol.

The chaos suite samples schedules; this module *enumerates* them.  For
the bounded presets of :mod:`repro.analysis.programs` (2-4 nodes, 1-2
pages) it drives the deterministic simulator through every relevant
interleaving of message delivery -- the only scheduling freedom: the
base network is FIFO per link, and the engine's ``choice_fn`` hook
parks every delivery as a labelled choice point -- and checks each
explored execution against the invariant catalogue, the program's
checked reads, and bit-exact recovery from every reachable crash point
(:func:`check_crash_points`).  Deliveries to different nodes commute;
deliveries to one node never do, because their order is log-record
append order.  Sleep sets (Godefroid) over that commutativity prune
executions that only permute independent deliveries of explored ones,
and never drop a Mazurkiewicz trace.  docs/analysis.md has the details.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..dsm.system import DsmSystem
from ..errors import ApplicationError, ConfigError, DeadlockError, SimulationError
from ..sim.engine import PendingChoice
from ..sim.network import DeliveryLabel
from ..sim.trace import Tracer
from .invariants import check_trace
from .programs import PRESETS, program_system

__all__ = [
    "McViolation",
    "McReport",
    "ModelChecker",
    "check_crash_points",
    "run_modelcheck",
]


# ----------------------------------------------------------------------
# controlled scheduler
# ----------------------------------------------------------------------
class _SleepBlocked(Exception):
    """Every enabled delivery is in the sleep set: this execution only
    permutes independent deliveries of one already explored."""


def _independent(a: Any, b: Any) -> bool:
    """Commutativity oracle: deliveries to different nodes commute."""
    if isinstance(a, DeliveryLabel) and isinstance(b, DeliveryLabel):
        return a.dst != b.dst
    return False  # unknown labels: assume dependent (sound)


def _sort_key(label: Any) -> Tuple[int, int, int, str]:
    if isinstance(label, DeliveryLabel):
        return (label.src, label.dst, label.link_seq, label.kind)
    return (1 << 30, 1 << 30, 0, repr(label))


def _enabled(pending: Sequence[PendingChoice]) -> List[PendingChoice]:
    """Per-link FIFO: only the lowest undelivered seq on each link."""
    best: Dict[Any, PendingChoice] = {}
    for c in pending:
        lab = c.label
        if isinstance(lab, DeliveryLabel):
            key: Any = (lab.src, lab.dst)
            cur = best.get(key)
            if cur is None or lab.link_seq < cur.label.link_seq:
                best[key] = c
        else:  # non-network labels form their own singleton links
            best[("?", id(c))] = c
    return sorted(best.values(), key=lambda c: _sort_key(c.label))


@dataclass
class _Job:
    """One scheduled re-execution: decision prefix + sleep set after it."""

    decisions: Tuple[int, ...]
    sleep: FrozenSet[Any]


class _Controller:
    """The ``choice_fn`` for one execution.

    Replays ``decisions`` (indices into the sorted enabled set at each
    step), then runs the default policy -- first enabled delivery not in
    the sleep set -- recording backtrack jobs for every alternative, per
    the sleep-set DFS.
    """

    def __init__(self, decisions: Sequence[int], sleep: FrozenSet[Any],
                 use_dpor: bool = True):
        self.decisions = list(decisions)
        self.sleep: Set[Any] = set(sleep)
        self.use_dpor = use_dpor
        self.chosen: List[int] = []  # full decision list of this run
        self.backtracks: List[_Job] = []
        self.steps = 0

    def _indep(self, a: Any, b: Any) -> bool:
        return self.use_dpor and _independent(a, b)

    def __call__(self, pending: List[PendingChoice]) -> Optional[PendingChoice]:
        enabled = _enabled(pending)
        step = len(self.chosen)
        if step < len(self.decisions):
            idx = self.decisions[step]
            if idx >= len(enabled):
                raise ConfigError(
                    f"--schedule step {step} picks delivery {idx}, but "
                    f"only {len(enabled)} are enabled there")
            self.chosen.append(idx)
            self.steps += 1
            return enabled[idx]
        # free run under the sleep set
        avail = [c for c in enabled if c.label not in self.sleep]
        if not avail:
            raise _SleepBlocked()
        chosen = avail[0]
        # schedule the siblings: alternative `a` explores with the
        # earlier siblings (incl. `chosen`) added to its sleep set
        earlier: List[Any] = [chosen.label]
        for alt in avail[1:]:
            alt_sleep = frozenset(
                u for u in set(self.sleep) | set(earlier)
                if self._indep(u, alt.label)
            )
            self.backtracks.append(
                _Job(tuple(self.chosen) + (enabled.index(alt),), alt_sleep)
            )
            earlier.append(alt.label)
        self.sleep = {u for u in self.sleep if self._indep(u, chosen.label)}
        self.chosen.append(enabled.index(chosen))
        self.steps += 1
        return chosen


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------
@dataclass
class McViolation:
    """One property failure, with enough to replay the exact schedule."""

    kind: str  # "invariant" | "recovery" | "run-error" | "deadlock"
    schedule: str
    detail: str
    victim: int = -1
    stop_at: int = -1
    crash_time: float = -1.0

    def repro_command(self, program: str, nodes: int, pages: int,
                      protocol: str) -> str:
        cmd = (
            f"python -m repro modelcheck --program {program} "
            f"--nodes {nodes} --pages {pages} --protocol {protocol}"
        )
        if self.schedule:
            cmd += f" --schedule {self.schedule}"
        return cmd


@dataclass
class McReport:
    """Outcome of one bounded exploration."""

    program: str
    protocol: str
    nodes: int
    pages: int
    use_dpor: bool
    budget: int
    explored: int = 0
    pruned: int = 0
    transitions: int = 0
    recovery_checks: int = 0
    recovery_deduped: int = 0
    truncated: bool = False
    violations: List[McViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        shape = (
            f"{self.program} nodes={self.nodes} pages={self.pages} "
            f"protocol={self.protocol} dpor={'on' if self.use_dpor else 'off'}"
        )
        status = "EXHAUSTED" if not self.truncated else (
            f"TRUNCATED at budget={self.budget}")
        lines = [
            f"modelcheck [{shape}]: {status}",
            f"  schedules explored: {self.explored}  "
            f"pruned (sleep-set): {self.pruned}  "
            f"delivery transitions: {self.transitions}",
            f"  recovery checks: {self.recovery_checks} "
            f"({self.recovery_deduped} deduplicated)",
            f"  violations: {len(self.violations)}",
        ]
        for v in self.violations[:20]:
            where = ""
            if v.kind == "recovery":
                where = (f" victim={v.victim} stop_at={v.stop_at} "
                         f"t={v.crash_time:.6g}")
            lines.append(f"  FAIL [{v.kind}]{where}: {v.detail}")
            lines.append("    " + v.repro_command(
                self.program, self.nodes, self.pages, self.protocol))
        if len(self.violations) > 20:
            lines.append(f"  ... and {len(self.violations) - 20} more")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# the checker
# ----------------------------------------------------------------------
def _schedule_str(decisions: Sequence[int]) -> str:
    return ".".join(str(d) for d in decisions)


def parse_schedule(text: str) -> Tuple[int, ...]:
    """Inverse of the repro line's ``--schedule`` encoding."""
    text = text.strip()
    if not text:
        return ()
    parts = text.split(".")
    if not all(part.isdigit() for part in parts):
        raise ConfigError(
            f"--schedule wants dot-separated delivery indices such as "
            f"0.2.1, got {text!r}")
    return tuple(int(part) for part in parts)


def check_crash_points(
    system: DsmSystem, probe: Any, protocol: str,
    seen: Optional[Set[Tuple[Any, ...]]] = None, after_run: bool = False,
) -> Tuple[List[Tuple[float, int, str]], int, int]:
    """Bit-exact recovery of one probed victim at every crash point.

    The crash points are each seal instant and each midpoint between two
    seals (``probe`` must ``capture_all``), plus, with ``after_run``, the
    end of the run, where a last seal flushed after it is durable.  At
    each, the log is cut to what a crash leaves on disk, replayed, and
    compared word for word with the snapshot of the seal replay stops
    at; a (victim, seal, durable log, snapshot) fingerprint already in
    ``seen`` is skipped.  Returns the failures as ``(crash time, seal,
    detail)``, the checks run and the checks skipped.
    """
    from ..core.recovery import compare_state, plan_victim, replay_failed_node
    from ..errors import LoggingProtocolError, RecoveryError

    victim = probe.node
    seen = set() if seen is None else seen
    failures: List[Tuple[float, int, str]] = []
    checks = dupes = 0
    if getattr(system.nodes[victim].hooks, "log", None) is None:
        return failures, checks, dupes
    seal_times = sorted(s.time for s in probe.snapshots.values())
    midpoints = [(a + b) / 2.0 for a, b in zip(seal_times, seal_times[1:])]
    after = [system.sim.now] if after_run else []
    for t in sorted(seal_times + midpoints + after):
        plan = plan_victim(system, probe, t)
        snapshot = plan.snapshot
        if plan.stop_at < 1 or snapshot is None:
            continue  # restart from the initial image: trivially bit-exact
        fp = (
            victim, plan.stop_at, len(plan.plog.persistent_records),
            snapshot.interval_index, repr(snapshot.vt),
            hash(tuple(snapshot.page_states.items())),
            hash(b"".join(
                snapshot.frames[p].tobytes() for p in sorted(snapshot.frames))),
        )
        if fp in seen:
            dupes += 1
            continue
        seen.add(fp)
        checks += 1
        try:
            replay, _rt = replay_failed_node(
                system.app, system.config, protocol, system, victim,
                plan.plog, plan.stop_at, plan.free_until, plan.checkpoint)
        except (RecoveryError, LoggingProtocolError, SimulationError) as exc:
            failures.append((t, plan.stop_at, f"replay error: {exc}"))
            continue
        mismatches = compare_state(replay, snapshot, system.config.page_size)
        if mismatches:
            failures.append(
                (t, plan.stop_at, "state mismatch: " + "; ".join(mismatches[:3])))
    return failures, checks, dupes


class ModelChecker:
    """Sleep-set DFS over delivery schedules of one bounded program."""

    def __init__(
        self,
        program: str = "lock",
        nodes: int = 2,
        pages: int = 1,
        protocol: str = "ccl",
        budget: int = 5000,
        use_dpor: bool = True,
        check_recovery: bool = True,
    ):
        if program not in PRESETS:
            raise ConfigError(
                f"unknown program {program!r}; have {sorted(PRESETS)}")
        if not (2 <= nodes <= 4):
            raise ConfigError("modelcheck is small-scope: 2 <= nodes <= 4")
        if not (1 <= pages <= 2):
            raise ConfigError("modelcheck is small-scope: 1 <= pages <= 2")
        self.program = program
        self.nodes = nodes
        self.pages = pages
        self.protocol = protocol
        self.budget = budget
        self.use_dpor = use_dpor
        self.check_recovery = check_recovery and protocol != "none"
        self.plan = PRESETS[program](nodes, pages)
        # repeated (victim, stop_at, identical snapshot+log) checks are skipped
        self._recovery_seen: Set[Tuple[Any, ...]] = set()

    # -- one execution -------------------------------------------------
    def _hooks_factory(self) -> Any:
        from ..core.logging_base import make_hooks_factory

        return make_hooks_factory(self.protocol)

    def _execute(
        self, decisions: Sequence[int], sleep: FrozenSet[Any]
    ) -> Tuple[DsmSystem, _Controller, Optional[str], List[Any]]:
        """Run one schedule; returns (system, controller, error, probes).

        ``error`` is a human-readable run failure (deadlock, assertion in
        the program, protocol error), or None on clean completion.
        May raise :class:`_SleepBlocked` (redundant execution, pruned).
        """
        from ..core.failure import CrashProbe

        system = program_system(self.plan, self.protocol, self._hooks_factory(),
                                tracer=Tracer(enabled=True))
        probes = [CrashProbe(v, capture_all=True)
                  for v in range(self.nodes)]
        for probe in probes:
            system.add_probe(probe)
        controller = _Controller(decisions, sleep, self.use_dpor)
        system.sim.choice_fn = controller
        run = getattr(DsmSystem.run, "__wrapped__", DsmSystem.run)
        error: Optional[str] = None
        try:
            run(system)
        except _SleepBlocked:
            raise
        except DeadlockError as exc:
            error = f"deadlock: blocked={exc.blocked}"
        except (ApplicationError, SimulationError) as exc:
            error = f"{type(exc).__name__}: {exc}"
        return system, controller, error, probes

    # -- per-execution property checks ---------------------------------
    def _check_execution(
        self,
        report: McReport,
        system: DsmSystem,
        controller: _Controller,
        error: Optional[str],
        probes: List[Any],
    ) -> None:
        schedule = _schedule_str(controller.chosen)
        if error is not None:
            kind = "deadlock" if error.startswith("deadlock") else "run-error"
            report.violations.append(McViolation(kind, schedule, error))
            return
        inv = check_trace(system.tracer)
        for v in inv.violations:
            report.violations.append(
                McViolation("invariant", schedule, str(v)))
        if not self.check_recovery:
            return
        for probe in probes:
            failures, checks, dupes = check_crash_points(
                system, probe, self.protocol, self._recovery_seen)
            report.recovery_checks += checks
            report.recovery_deduped += dupes
            report.violations += [
                McViolation("recovery", schedule, detail, victim=probe.node,
                            stop_at=stop_at, crash_time=t)
                for t, stop_at, detail in failures]

    # -- exploration ---------------------------------------------------
    def explore(self) -> McReport:
        """DFS the schedule space to exhaustion or budget."""
        report = McReport(
            self.program, self.protocol, self.nodes, self.pages,
            self.use_dpor, self.budget,
        )
        stack: List[_Job] = [_Job((), frozenset())]
        while stack:
            if report.explored + report.pruned >= self.budget:
                report.truncated = True
                break
            job = stack.pop()
            try:
                system, controller, error, probes = self._execute(
                    job.decisions, job.sleep)
            except _SleepBlocked:
                report.pruned += 1
                continue
            report.explored += 1
            report.transitions += controller.steps
            # LIFO: reverse so the first alternative is explored next
            stack.extend(reversed(controller.backtracks))
            self._check_execution(report, system, controller, error, probes)
        return report

    def replay(self, schedule: str) -> McReport:
        """Re-run one schedule (from a violation repro line) and check it."""
        report = McReport(
            self.program, self.protocol, self.nodes, self.pages,
            self.use_dpor, budget=1,
        )
        try:
            system, controller, error, probes = self._execute(
                parse_schedule(schedule), frozenset())
        except _SleepBlocked:  # pragma: no cover - empty sleep never blocks
            report.pruned += 1
            return report
        report.explored = 1
        report.transitions = controller.steps
        self._check_execution(report, system, controller, error, probes)
        return report


def run_modelcheck(
    program: str = "lock",
    nodes: int = 2,
    pages: int = 1,
    protocol: str = "ccl",
    budget: int = 5000,
    use_dpor: bool = True,
    check_recovery: bool = True,
    schedule: Optional[str] = None,
) -> McReport:
    """One-call entry point used by the CLI and tests."""
    checker = ModelChecker(
        program=program, nodes=nodes, pages=pages, protocol=protocol,
        budget=budget, use_dpor=use_dpor, check_recovery=check_recovery,
    )
    if schedule is not None:
        return checker.replay(schedule)
    return checker.explore()
