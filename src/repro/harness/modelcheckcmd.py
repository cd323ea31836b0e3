"""The ``repro modelcheck`` command: bounded schedule/crash exploration.

Drives the small-scope model checker (:mod:`repro.analysis.modelcheck`)
from the CLI.  Default invocation exhaustively explores every relevant
message-delivery interleaving of a 2-node, 1-page lock program under
CCL, checking the invariant catalogue and bit-exact recovery from every
reachable crash point::

    python -m repro modelcheck

Larger bounded configs (up to 4 nodes, 2 pages, the ``barrier``
program) explore until exhaustion or ``--budget`` schedules.  A
violation prints a one-line command that replays exactly the failing
schedule::

    python -m repro modelcheck --program lock --nodes 3 --pages 1 \
        --protocol ccl --schedule 0.2.1

``--no-dpor`` disables the sleep-set reduction (for measuring how much
it prunes); ``--no-recovery`` skips the crash-point recovery checks and
only verifies the live invariants.  Exit status is non-zero when any
violation is found or the exploration was truncated by the budget.
"""

from __future__ import annotations

from ..obs.console import get_console

__all__ = ["run_modelcheck_cmd"]


def run_modelcheck_cmd(args) -> int:
    """Entry point for ``repro modelcheck``; returns an exit code."""
    from ..analysis.modelcheck import run_modelcheck

    con = get_console()
    report = run_modelcheck(
        program=args.program,
        nodes=args.nodes,
        pages=args.pages,
        protocol=args.protocol,
        budget=args.budget,
        use_dpor=not args.no_dpor,
        check_recovery=not args.no_recovery,
        schedule=args.schedule,
    )
    con.result(report.render())
    con.emit("modelcheck", {
        "program": report.program,
        "protocol": report.protocol,
        "nodes": report.nodes,
        "pages": report.pages,
        "dpor": report.use_dpor,
        "explored": report.explored,
        "pruned": report.pruned,
        "transitions": report.transitions,
        "recovery_checks": report.recovery_checks,
        "truncated": report.truncated,
        "violations": len(report.violations),
    })
    if not report.ok:
        return 1
    if report.truncated and args.schedule is None:
        if args.allow_truncated:
            con.info("state space not exhausted within --budget "
                     f"{args.budget} (coverage run, --allow-truncated)")
            return 0
        con.error("state space not exhausted within --budget "
                  f"{args.budget}; raise the budget for a proof")
        return 1
    return 0
