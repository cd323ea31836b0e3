"""Tests for the small-scope model checker (analysis/modelcheck.py).

Covers: exhaustive exploration of bounded configs, the sleep-set
partial-order reduction (soundness and effectiveness vs. the unreduced
explorer), per-crash-point recovery checking, schedule replay from a
repro line, and the acceptance-criterion mutation test -- a protocol
with a dropped log hook must be caught as a recovery violation.
"""

import shlex

import pytest

from repro.analysis.modelcheck import (
    McViolation,
    ModelChecker,
    parse_schedule,
    run_modelcheck,
)
from repro.errors import ConfigError
from repro.harness.cli import _parser
from repro.harness.cli import main as cli_main


# ----------------------------------------------------------------------
# exhaustive exploration of the bounded configs
# ----------------------------------------------------------------------
def test_two_node_lock_exhausts_cleanly():
    report = run_modelcheck(program="lock", nodes=2, pages=1)
    assert report.ok
    assert not report.truncated
    # with per-link FIFO delivery and dst-based independence, the
    # 2-node lock program has exactly one Mazurkiewicz trace
    assert report.explored == 1
    assert report.transitions > 0
    assert report.recovery_checks > 0


def test_two_node_barrier_exhausts_cleanly():
    report = run_modelcheck(program="barrier", nodes=2, pages=2)
    assert report.ok
    assert not report.truncated
    assert report.explored >= 1


def test_three_node_lock_exhausts_and_branches():
    report = run_modelcheck(program="lock", nodes=3, pages=1)
    assert report.ok
    assert not report.truncated
    # three nodes genuinely race on the lock: many inequivalent
    # schedules, and the sleep sets prune a nontrivial share
    assert report.explored > 10
    assert report.pruned > 0
    assert report.recovery_checks > 0


def test_dpor_explores_fewer_executions_than_full_search():
    full = run_modelcheck(program="lock", nodes=3, pages=1,
                          use_dpor=False, budget=120, check_recovery=False)
    reduced = run_modelcheck(program="lock", nodes=3, pages=1,
                             check_recovery=False)
    assert reduced.ok and not reduced.truncated
    assert full.ok  # no violations in whatever prefix the budget covered
    # the unreduced search does not even finish within a budget larger
    # than the number of complete executions the reduced one needs
    # (sleep-blocked prunes abort after a prefix, so they are cheap)
    assert full.truncated
    assert reduced.explored < full.explored


def test_budget_truncation_reported():
    report = run_modelcheck(program="lock", nodes=3, pages=1,
                            budget=5, check_recovery=False)
    assert report.truncated
    assert report.explored + report.pruned == 5


def test_small_scope_bounds_enforced():
    with pytest.raises(ConfigError):
        ModelChecker(nodes=8)
    with pytest.raises(ConfigError):
        ModelChecker(pages=3)
    with pytest.raises(ConfigError):
        ModelChecker(program="fft3d")


# ----------------------------------------------------------------------
# schedule replay (the violation repro path)
# ----------------------------------------------------------------------
def test_parse_schedule_roundtrip():
    assert parse_schedule("") == ()
    assert parse_schedule("0") == (0,)
    assert parse_schedule("0.2.1") == (0, 2, 1)


def test_replay_reruns_one_schedule():
    report = run_modelcheck(program="lock", nodes=3, pages=1,
                            schedule="0.1")
    assert report.ok
    assert report.explored == 1
    assert report.transitions > 0


def test_replay_rejects_stale_decision_index():
    # an out-of-range decision is a bad input, not a protocol violation
    checker = ModelChecker(program="lock", nodes=2, pages=1)
    with pytest.raises(ConfigError, match="--schedule step 0 picks delivery 99"):
        checker.replay("99")


# ----------------------------------------------------------------------
# acceptance criterion: a dropped log hook is caught
# ----------------------------------------------------------------------
class _DroppedNoticeHook(ModelChecker):
    """CCL with ``on_notices_received`` silenced: lock-grant /
    barrier-release notices never reach the log, so replay of the
    victim diverges from its pre-crash state."""

    def _hooks_factory(self):
        from repro.core.logging_base import make_hooks

        def factory(_node_id):
            hooks = make_hooks(self.protocol)
            hooks.on_notices_received = lambda *a, **kw: None
            return hooks

        return factory


def test_dropped_log_hook_caught_as_recovery_violation():
    checker = _DroppedNoticeHook(program="lock", nodes=2, pages=1)
    report = checker.explore()
    assert not report.ok
    kinds = {v.kind for v in report.violations}
    assert "recovery" in kinds
    # every recovery violation carries a one-line repro command
    v = next(v for v in report.violations if v.kind == "recovery")
    line = v.repro_command("lock", 2, 1, "ccl")
    assert "modelcheck" in line and "--schedule" in line


def test_violation_repro_line_replays_the_failure():
    checker = _DroppedNoticeHook(program="lock", nodes=2, pages=1)
    report = checker.explore()
    v = next(v for v in report.violations if v.kind == "recovery")
    replayed = _DroppedNoticeHook(
        program="lock", nodes=2, pages=1).replay(v.schedule)
    assert not replayed.ok
    assert any(r.kind == "recovery" for r in replayed.violations)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_modelcheck_smoke(capsys):
    code = cli_main(["modelcheck", "--nodes", "2", "--pages", "1",
                     "--quiet"])
    out = capsys.readouterr().out
    assert code == 0
    assert "EXHAUSTED" in out
    assert "violations: 0" in out


def test_cli_modelcheck_bare_runs_the_two_node_default(capsys):
    # the other commands' --nodes default (8) is outside the small
    # scope; the bare command runs the documented 2-node config instead
    code = cli_main(["modelcheck", "--quiet"])
    out = capsys.readouterr().out
    assert code == 0
    assert "lock nodes=2 pages=1 protocol=ccl" in out
    assert "violations: 0" in out


@pytest.mark.parametrize("schedule", ["x", "0.x", "-1", "9.9"])
def test_cli_modelcheck_bad_schedule_is_one_line(schedule, capsys):
    code = cli_main(["modelcheck", "--quiet", "--schedule", schedule])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    (line,) = captured.err.strip().splitlines()
    assert "--schedule" in line


def test_violation_repro_command_parses_back_to_its_config():
    line = McViolation("recovery", "0.2.1", "replay diverged").repro_command(
        "barrier", 3, 2, "ml")
    argv = shlex.split(line)
    assert argv[:4] == ["python", "-m", "repro", "modelcheck"]
    args = _parser().parse_args(argv[3:])
    assert (args.program, args.nodes, args.pages, args.protocol,
            args.schedule) == ("barrier", 3, 2, "ml", "0.2.1")


def test_cli_modelcheck_out_of_scope_nodes_is_one_line(capsys):
    code = cli_main(["modelcheck", "--quiet", "--nodes", "8"])
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert "2 <= nodes <= 4" in line
