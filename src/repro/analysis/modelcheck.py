"""Small-scope model checking of the coherence/logging protocol.

The chaos suite samples schedules; this module *enumerates* them.  For
bounded configurations (2-4 nodes, 1-2 pages, short lock/barrier
programs) it drives the deterministic simulator through every relevant
interleaving of message delivery, and at the end of each explored
execution checks

* the streaming invariant catalogue (:mod:`repro.analysis.invariants`)
  over the execution's causal trace,
* the program's own result (each rank asserts the shared data it must
  observe after the final barrier), and
* **bit-exact recovery from every reachable crash point**: for every
  node and every sealed interval of the execution, the victim's durable
  log is truncated to what a crash at that instant leaves on disk and
  replayed (:func:`repro.core.recovery.replay_failed_node`), and the
  recovered image is compared word-for-word against the crash-point
  snapshot -- the paper's correctness claim, checked on *all* schedules
  instead of observed ones.

Nondeterminism model
--------------------
The only scheduling freedom in the simulated cluster is message
delivery order: computation between deliveries is deterministic, and
the base network is FIFO per ``(src, dst)`` link (one transmit NIC,
constant latency).  The engine's controlled-scheduler hook
(:meth:`repro.sim.engine.Simulator.run` with ``choice_fn``) parks every
delivery as a labelled choice point; whenever the event heap drains,
the checker picks which *enabled* delivery (lowest undelivered
``link_seq`` on each link) fires next.

Partial-order reduction
-----------------------
Exhaustive enumeration of delivery orders explodes factorially, but
most orders are equivalent: two deliveries addressed to *different*
nodes commute -- each runs handler code only at its destination, and
the messages a handler emits go out on links whose labels are assigned
deterministically.  Deliveries to the *same* node never commute here,
even for disjoint pages, because handler execution order is exactly
what determines log-record append order -- the order-sensitivity the
recovery checks exist to exercise.  The checker prunes with **sleep
sets** (Godefroid) over this commutativity oracle: an execution that
would only permute independent deliveries of an already-explored
execution is cut off and counted as pruned.  Sleep sets never drop a
Mazurkiewicz trace, so every inequivalent delivery order within the
budget is still explored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, Generator, List, Optional
from typing import Sequence, Set, Tuple

import numpy as np

from ..config import ClusterConfig
from ..dsm.system import DsmSystem
from ..errors import ApplicationError, DeadlockError, SimulationError
from ..sim.engine import PendingChoice
from ..sim.network import DeliveryLabel
from ..sim.trace import Tracer
from .invariants import check_trace

__all__ = [
    "McViolation",
    "McReport",
    "ModelChecker",
    "PROGRAMS",
    "run_modelcheck",
]


# ----------------------------------------------------------------------
# bounded programs
# ----------------------------------------------------------------------
_PAGE_SIZE = 256
_WORDS_PER_PAGE = _PAGE_SIZE // 4  # int32


class _BoundedApp:
    """A tiny SPMD program sized for exhaustive exploration."""

    data_set = "bounded"
    synchronization = "mixed"

    def __init__(self, name: str, pages: int,
                 program: Callable[["_BoundedApp", Any], Generator[Any, Any, None]]):
        self.name = name
        self.pages = pages
        self._program = program

    def allocate(self, space: Any, nprocs: int) -> None:
        n = self.pages * _WORDS_PER_PAGE
        space.allocate("x", (n,), np.int32, init=np.zeros(n, np.int32))

    def homes(self, space: Any, nprocs: int) -> Optional[List[int]]:
        return None  # round-robin

    def program(self, dsm: Any) -> Generator[Any, Any, None]:
        yield from self._program(self, dsm)


def _lock_program(app: _BoundedApp, dsm: Any) -> Generator[Any, Any, None]:
    """Each rank, under one global lock, bumps its own word of every
    page; after the final barrier every rank must observe all bumps."""
    for page in range(app.pages):
        word = page * _WORDS_PER_PAGE + dsm.rank
        yield from dsm.acquire(0)
        yield from dsm.write("x", word, word + 1)
        dsm.arr("x")[word] += dsm.rank + 1
        yield from dsm.release(0)
    yield from dsm.barrier(0)
    yield from dsm.read("x")
    x = dsm.arr("x")
    for page in range(app.pages):
        base = page * _WORDS_PER_PAGE
        for r in range(dsm.nprocs):
            if int(x[base + r]) != r + 1:
                raise ApplicationError(
                    f"rank {dsm.rank}: x[{base + r}] == {int(x[base + r])}, "
                    f"expected {r + 1}"
                )


def _barrier_program(app: _BoundedApp, dsm: Any) -> Generator[Any, Any, None]:
    """Disjoint writes, a barrier, then each rank checks its left
    neighbour's slice -- the write-notice propagation path."""
    stride = max(1, _WORDS_PER_PAGE // max(1, dsm.nprocs))
    for page in range(app.pages):
        lo = page * _WORDS_PER_PAGE + dsm.rank * stride
        yield from dsm.write("x", lo, lo + stride)
        dsm.arr("x")[lo:lo + stride] = dsm.rank + 1
    yield from dsm.barrier(0)
    left = (dsm.rank - 1) % dsm.nprocs
    for page in range(app.pages):
        lo = page * _WORDS_PER_PAGE + left * stride
        yield from dsm.read("x", lo, lo + stride)
        seen = dsm.arr("x")[lo:lo + stride]
        if not bool(np.all(seen == left + 1)):
            raise ApplicationError(
                f"rank {dsm.rank}: neighbour slice {seen.tolist()} != {left + 1}"
            )
    yield from dsm.barrier(1)


PROGRAMS: Dict[str, Callable[[_BoundedApp, Any], Generator[Any, Any, None]]] = {
    "lock": _lock_program,
    "barrier": _barrier_program,
}


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
                raise SimulationError(
                    f"schedule step {step}: index {idx} out of range "
                    f"({len(enabled)} enabled) -- stale schedule?"
                )
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
    return tuple(int(part) for part in text.split("."))


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
        if program not in PROGRAMS:
            raise ValueError(
                f"unknown program {program!r}; have {sorted(PROGRAMS)}")
        if not (2 <= nodes <= 4):
            raise ValueError("modelcheck is small-scope: 2 <= nodes <= 4")
        if not (1 <= pages <= 2):
            raise ValueError("modelcheck is small-scope: 1 <= pages <= 2")
        self.program = program
        self.nodes = nodes
        self.pages = pages
        self.protocol = protocol
        self.budget = budget
        self.use_dpor = use_dpor
        self.check_recovery = check_recovery and protocol != "none"
        self.config = ClusterConfig.ultra5(
            num_nodes=nodes, page_size=_PAGE_SIZE)
        # fingerprint -> first schedule that checked it; repeated
        # (victim, stop_at, identical snapshot+log) checks are skipped
        self._recovery_seen: Set[Tuple[Any, ...]] = set()

    # -- one execution -------------------------------------------------
    def _app(self) -> _BoundedApp:
        return _BoundedApp(
            f"mc-{self.program}", self.pages, PROGRAMS[self.program])

    def _hooks_factory(self) -> Any:
        from ..core.logging_base import make_hooks_factory

        return make_hooks_factory(self.protocol)

    def _build(self, app: _BoundedApp) -> DsmSystem:
        return DsmSystem(
            app, self.config, self._hooks_factory(),
            tracer=Tracer(enabled=True),
        )

    def _execute(
        self, decisions: Sequence[int], sleep: FrozenSet[Any]
    ) -> Tuple[DsmSystem, _Controller, Optional[str], List[Any]]:
        """Run one schedule; returns (system, controller, error, probes).

        ``error`` is a human-readable run failure (deadlock, assertion in
        the program, protocol error), or None on clean completion.
        May raise :class:`_SleepBlocked` (redundant execution, pruned).
        """
        from ..core.failure import CrashProbe

        app = self._app()
        system = self._build(app)
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
        if self.check_recovery:
            for probe in probes:
                self._check_recovery(report, system, probe, schedule)

    def _check_recovery(
        self, report: McReport, system: DsmSystem, probe: Any, schedule: str
    ) -> None:
        """Chaos-style bit-exact recovery at every crash point of one
        victim: each seal instant plus each inter-seal midpoint."""
        from ..core.recovery import (
            compare_state,
            plan_victim,
            replay_failed_node,
        )
        from ..errors import LoggingProtocolError, RecoveryError

        victim = probe.node
        log = getattr(system.nodes[victim].hooks, "log", None)
        if log is None or not probe.snapshots:
            return
        seal_times = sorted(s.time for s in probe.snapshots.values())
        instants = list(seal_times)
        instants += [
            (a + b) / 2.0 for a, b in zip(seal_times, seal_times[1:])
        ]
        for t in sorted(instants):
            plan = plan_victim(system, probe, t)
            view, stop_at, snapshot = plan.plog, plan.stop_at, plan.snapshot
            if stop_at < 1:
                continue  # restart-from-checkpoint: trivially bit-exact
            fp = (
                victim, stop_at, len(view._persistent),
                snapshot.interval_index, repr(snapshot.vt),
                hash(tuple(snapshot.page_states.items())),
                hash(b"".join(
                    snapshot.frames[p].tobytes() for p in sorted(snapshot.frames))),
            )
            if fp in self._recovery_seen:
                report.recovery_deduped += 1
                continue
            self._recovery_seen.add(fp)
            report.recovery_checks += 1
            try:
                replay, _rt = replay_failed_node(
                    system.app, self.config, self.protocol, system,
                    victim, view, stop_at,
                )
            except (RecoveryError, LoggingProtocolError,
                    SimulationError) as exc:
                report.violations.append(McViolation(
                    "recovery", schedule, f"replay error: {exc}",
                    victim=victim, stop_at=stop_at, crash_time=t))
                continue
            mismatches = compare_state(
                replay, snapshot, self.config.page_size)
            if mismatches:
                report.violations.append(McViolation(
                    "recovery", schedule,
                    "state mismatch: " + "; ".join(mismatches[:3]),
                    victim=victim, stop_at=stop_at, crash_time=t))

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
