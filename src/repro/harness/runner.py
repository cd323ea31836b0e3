"""Experiment runners for the paper's evaluation (Section 4).

Three entry points mirror the paper's three measurement campaigns:

* :func:`run_application` -- one app under one logging protocol;
* :func:`logging_comparison` -- Table 2 / Figure 4: the same app under
  None, ML, and CCL, with log-size and flush statistics;
* :func:`recovery_comparison` -- Figure 5: re-execution (the
  failure-free run's duration) vs ML-recovery vs CCL recovery, with the
  crash injected at the failed node's final interval by default.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..apps import make_app
from ..config import ClusterConfig
from ..core import (
    CCL_PAPER,
    PolicyLogging,
    RecoveryResult,
    make_hooks_factory,
    run_recovery_experiment,
)
from ..dsm import DsmSystem, RunResult
from ..errors import HarnessError
from .scales import app_kwargs

__all__ = [
    "run_application",
    "ProtocolRow",
    "LoggingComparison",
    "logging_comparison",
    "logging_comparison_task",
    "RecoveryComparison",
    "recovery_comparison",
    "recovery_comparison_task",
]


def _hooks_factory(protocol: str, paper_mode: bool,
                   recovery_budget: Optional[float] = None):
    if paper_mode and protocol == "ccl":
        return lambda _i: PolicyLogging(CCL_PAPER)
    return make_hooks_factory(protocol, recovery_budget=recovery_budget)


def run_application(
    app_name: str,
    protocol: str = "none",
    config: Optional[ClusterConfig] = None,
    scale: str = "bench",
    verify: bool = True,
    paper_mode: bool = False,
    recovery_budget: Optional[float] = None,
    replication: int = 1,
    **app_overrides,
) -> Tuple[RunResult, DsmSystem]:
    """Run one application once; optionally verify its numerics.

    ``paper_mode=True`` selects the configuration the paper's numbers
    imply: writer-aligned (first-touch-style) home assignment and CCL
    *without* the home-write-diff extension.  It reproduces the paper's
    log-size ratios; crash recovery in this mode would require the
    paper's home-rollback worst case, so the recovery experiments use
    the sound default instead (see EXPERIMENTS.md).
    """
    config = config or ClusterConfig.ultra5()
    kwargs = app_kwargs(app_name, scale)
    kwargs.update(app_overrides)
    if paper_mode:
        kwargs.setdefault("home_policy", "aligned")
    app = make_app(app_name, **kwargs)
    system = DsmSystem(
        app, config,
        _hooks_factory(protocol, paper_mode, recovery_budget=recovery_budget),
        protocol_name=protocol,
        replication=replication,
    )
    result = system.run()
    if verify and not app.verify(system):
        raise HarnessError(
            f"{app_name} failed numerical verification under {protocol!r}"
        )
    return result, system


@dataclass
class ProtocolRow:
    """One row of a Table 2 panel."""

    protocol: str
    exec_time_s: float
    mean_log_kb: float
    total_log_mb: float
    num_flushes: int

    @classmethod
    def from_result(cls, result: RunResult) -> "ProtocolRow":
        return cls(
            protocol=result.protocol,
            exec_time_s=result.total_time,
            mean_log_kb=result.mean_flush_bytes / 1024.0,
            total_log_mb=result.total_log_bytes / (1024.0 * 1024.0),
            num_flushes=result.num_flushes,
        )


@dataclass
class LoggingComparison:
    """Table 2 panel for one application (plus Figure 4's bar group)."""

    app_name: str
    rows: List[ProtocolRow]
    results: Dict[str, RunResult] = field(repr=False, default_factory=dict)

    def row(self, protocol: str) -> ProtocolRow:
        for r in self.rows:
            if r.protocol == protocol:
                return r
        raise HarnessError(f"no row for protocol {protocol!r}")

    def normalized_time(self, protocol: str) -> float:
        """Execution time normalised to the no-logging run (Figure 4)."""
        return self.row(protocol).exec_time_s / self.row("none").exec_time_s

    @property
    def ccl_log_fraction(self) -> float:
        """CCL total log size as a fraction of ML's (Section 4.2 prose)."""
        ml = self.row("ml").total_log_mb
        return self.row("ccl").total_log_mb / ml if ml else 0.0


def logging_comparison(
    app_name: str,
    config: Optional[ClusterConfig] = None,
    scale: str = "bench",
    protocols: Tuple[str, ...] = ("none", "ml", "ccl"),
    verify: bool = True,
    paper_mode: bool = False,
    **app_overrides,
) -> LoggingComparison:
    """Run one app under each protocol; assemble its Table 2 panel."""
    rows: List[ProtocolRow] = []
    results: Dict[str, RunResult] = {}
    for protocol in protocols:
        result, _system = run_application(
            app_name, protocol, config, scale, verify,
            paper_mode=paper_mode, **app_overrides,
        )
        rows.append(ProtocolRow.from_result(result))
        results[protocol] = result
    return LoggingComparison(app_name, rows, results)


def logging_comparison_task(spec: Dict) -> LoggingComparison:
    """Picklable :func:`logging_comparison` wrapper for process fan-out.

    ``spec`` carries the keyword arguments; the returned comparison is
    stripped of live node objects (they hold generators and cannot
    cross a process boundary; nothing downstream of the CLI renders
    from them).  Serial runs use the same wrapper so serial and
    parallel outputs come from identical code.
    """
    cmp = logging_comparison(**spec)
    for result in cmp.results.values():
        result.nodes = []
    return cmp


@dataclass
class RecoveryComparison:
    """Figure 5 bar group for one application."""

    app_name: str
    reexecution_s: float
    ml: RecoveryResult
    ccl: RecoveryResult

    def normalized(self, which: str) -> float:
        """Recovery time normalised to re-execution (Figure 5's y-axis)."""
        if which == "reexec":
            return 1.0
        res = self.ml if which == "ml" else self.ccl
        return res.recovery_time / self.reexecution_s

    def reduction(self, which: str) -> float:
        """Recovery-time reduction vs re-execution (Section 4.3 prose)."""
        return 1.0 - self.normalized(which)


def recovery_comparison(
    app_name: str,
    config: Optional[ClusterConfig] = None,
    scale: str = "bench",
    failed_node: int = 3,
    at_seal: Optional[int] = None,
    checkpoint_every: Optional[int] = None,
    **app_overrides,
) -> RecoveryComparison:
    """Run the Figure 5 experiment for one application.

    Re-execution is the paper's baseline: restarting from the global
    initial state costs one failure-free (no-logging) run.  Both
    recovery experiments verify bit-exact state reconstruction; a
    mismatch raises.
    """
    config = config or ClusterConfig.ultra5()
    kwargs = app_kwargs(app_name, scale)
    kwargs.update(app_overrides)
    reexec, _sys = run_application(
        app_name, "none", config, scale, verify=False, **app_overrides
    )
    out: Dict[str, RecoveryResult] = {}
    for protocol in ("ml", "ccl"):
        res = run_recovery_experiment(
            make_app(app_name, **kwargs),
            config,
            protocol,
            failed_nodes=(failed_node,),
            at_seal=at_seal,
            checkpoint_every=checkpoint_every,
        )
        if not res.ok:
            raise HarnessError(
                f"{app_name}/{protocol} recovery diverged: "
                f"{res.victims[0].mismatches[:3]}"
            )
        out[protocol] = res
    return RecoveryComparison(
        app_name, reexec.total_time, out["ml"], out["ccl"]
    )


def recovery_comparison_task(spec: Dict) -> RecoveryComparison:
    """Picklable :func:`recovery_comparison` wrapper for process fan-out.

    Strips the phase-A run results (live nodes again); Figure 5 renders
    purely from the recovery/re-execution times and replay statistics.
    """
    cmp = recovery_comparison(**spec)
    cmp.ml.phase_a = None
    cmp.ccl.phase_a = None
    return cmp
