"""The ``repro analyze`` command: run the coherence sanitizer on demand.

Two modes::

    python -m repro analyze trace.jsonl          # check a saved trace
    python -m repro analyze --apps sor --protocol ccl --scale test

The first loads a JSONL trace (``Tracer.save``) or a run bundle's trace
and runs the protocol invariant checker over it.  The second runs an
application with tracing forced on, then runs both the invariant
checker and the recoverability auditor, and prints a combined report.
Exit status is non-zero when any finding is reported.
"""

from __future__ import annotations

from ..analysis.invariants import InvariantReport, check_trace
from ..analysis.recoverability import RecoverabilityReport
from ..config import ClusterConfig
from ..obs.artifacts import load_trace
from ..obs.console import get_console

__all__ = ["analyze_trace", "analyze_app", "run_analyze"]


def _print_invariants(report: InvariantReport) -> None:
    con = get_console()
    con.result(
        f"invariant checker: {report.events_checked} events, "
        f"{report.intervals_seen} intervals, "
        f"{report.races_checked} race pairs checked"
    )
    if report.ok:
        con.result("  no violations")
        return
    for rule in sorted({v.rule for v in report.violations}):
        violations = report.by_rule(rule)
        con.result(f"  {rule}: {len(violations)}")
        for v in violations:
            con.result(f"    {v}")


def _print_audit(report: RecoverabilityReport) -> None:
    con = get_console()
    line = (
        f"recoverability auditor ({report.protocol}): "
        f"{report.events_checked} update events, "
        f"{report.notice_records_checked} notice records, "
        f"{report.fetches_checked} fetched versions checked"
    )
    if report.skipped_reason:
        line += f" (content pass skipped: {report.skipped_reason})"
    con.result(line)
    if report.ok:
        con.result("  all logged state recoverable")
        return
    for p in report.problems:
        con.result(f"  {p}")


def analyze_trace(path: str) -> int:
    """Check one saved trace or bundle; returns a process exit code."""
    tracer = load_trace(path)
    get_console().result(f"{path}: {len(tracer)} events")
    report = check_trace(tracer)
    _print_invariants(report)
    return 0 if report.ok else 1


def analyze_app(
    app: str,
    protocol: str,
    config: ClusterConfig,
    scale: str,
    save: str | None = None,
) -> int:
    """Run one application traced, then run both sanitizer passes."""
    from ..analysis.recoverability import audit_recoverability
    from ..analysis.sanitize import traced
    from .runner import run_application

    con = get_console()
    with traced():
        result, system = run_application(app, protocol, config, scale)
    status = "completed" if result.completed else "DID NOT COMPLETE"
    con.result(
        f"{app}/{protocol} @ {scale}: {status}, "
        f"{len(system.tracer)} trace events"
    )
    if save:
        system.tracer.save(save)
        con.info(f"trace written to {save}")
    inv = check_trace(system.tracer)
    _print_invariants(inv)
    audit = audit_recoverability(system)
    _print_audit(audit)
    return 0 if (inv.ok and audit.ok and result.completed) else 1


def run_analyze(args) -> int:
    """Dispatch for the CLI's ``analyze`` command."""
    if args.trace is not None:
        return analyze_trace(args.trace)
    config = ClusterConfig.ultra5(num_nodes=args.nodes)
    worst = 0
    for app in args.apps:
        worst = max(
            worst,
            analyze_app(app, args.protocol, config, args.scale,
                        save=args.save_trace),
        )
        get_console().result("")
    return worst
