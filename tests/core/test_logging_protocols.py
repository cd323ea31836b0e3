"""Behavioural tests for the ML and CCL logging protocols.

These run the same applications under all three protocols and check the
paper's qualitative claims: CCL's log is a small fraction of ML's, its
flush is overlapped with communication, and neither protocol perturbs
the application's results.
"""

import pytest

from repro.analysis.programs import PRESETS, program_system
from repro.core import (
    CCL,
    CCL_NO_OVERLAP,
    CCL_PAPER,
    FetchLogRecord,
    IncomingDiffLogRecord,
    NoticeLogRecord,
    OwnDiffLogRecord,
    PageCopyLogRecord,
    PolicyLogging,
    UpdateEventLogRecord,
    make_hooks,
    make_hooks_factory,
)
from repro.core.logging_base import SCHEMES
from repro.dsm import DsmSystem
from repro.dsm.logginghooks import LogPolicy
from repro.errors import ConfigError
from tests.analysis.conftest import raw_run
from tests.core.conftest import BarrierApp, LockApp

#: Named policies that are not a protocol of their own.
VARIANTS = {"ccl-paper": CCL_PAPER, "ccl-no-overlap": CCL_NO_OVERLAP}


def run(app, config, protocol):
    system = DsmSystem(app, config, make_hooks_factory(protocol))
    return system.run(), system


class TestFactories:
    def test_make_hooks_names(self):
        for name in SCHEMES:
            assert make_hooks(name).name == name

    @pytest.mark.parametrize("name", [*SCHEMES, *VARIANTS])
    def test_logged_records_follow_the_policy(self, name):
        """On the ``lock`` preset each policy flag shows in the logs:
        ``contents`` as page copies / incoming diffs, ``skeleton`` as
        update events / own diffs, and no home diffs without
        ``home_diffs``.  (Adaptive's row holds its interval-0 policy.)"""
        row = SCHEMES.get(name)
        policy = row.policy if row else VARIANTS[name]
        if row:
            assert make_hooks(name).policy == policy
        system = program_system(
            PRESETS["lock"](2, 2), name if row else "ccl",
            None if row else lambda _i: PolicyLogging(policy),
            replication=2 if row and row.promotes else 1)
        assert raw_run(system).completed
        records = [r for n in system.nodes if hasattr(n.hooks, "log")
                   for r in n.hooks.log.all_records]
        kinds = {type(r) for r in records}
        assert policy.contents == bool(
            kinds & {PageCopyLogRecord, IncomingDiffLogRecord})
        assert policy.skeleton == bool(
            kinds & {UpdateEventLogRecord, OwnDiffLogRecord})
        home_diffs = [d for r in records if isinstance(r, OwnDiffLogRecord)
                      for d in r.home_diffs]
        assert policy.home_diffs == bool(home_diffs)

    @pytest.mark.parametrize("flags", [
        {"home_diffs": True},
        {"skeleton": True, "empty_home_diffs": True},
    ])
    def test_policy_refuses_what_no_replay_reads(self, flags):
        with pytest.raises(ConfigError, match="needs"):
            LogPolicy("bad", **flags)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ConfigError):
            make_hooks("magic")

    def test_factory_yields_fresh_instances(self):
        f = make_hooks_factory("ccl")
        assert f(0) is not f(1)


class TestExecutionOverheadOrdering:
    def test_none_le_ccl_le_ml(self, small_cluster):
        times = {}
        for proto in ("none", "ml", "ccl"):
            result, _ = run(BarrierApp(iters=4), small_cluster, proto)
            times[proto] = result.total_time
        assert times["none"] <= times["ccl"] <= times["ml"]
        # and logging costs something at all
        assert times["ml"] > times["none"]

    def test_protocols_do_not_change_results(self, small_cluster):
        # BarrierApp asserts data internally; completing under each
        # protocol proves transparency
        for proto in ("none", "ml", "ccl"):
            run(BarrierApp(iters=3), small_cluster, proto)
            run(LockApp(iters=2), small_cluster, proto)


class TestLogSizes:
    def test_ccl_log_is_small_fraction_of_ml(self, small_cluster):
        ml, _ = run(BarrierApp(iters=4), small_cluster, "ml")
        ccl, _ = run(BarrierApp(iters=4), small_cluster, "ccl")
        assert 0 < ccl.total_log_bytes < 0.5 * ml.total_log_bytes

    def test_ml_mean_flush_larger_than_ccl(self, small_cluster):
        ml, _ = run(BarrierApp(iters=4), small_cluster, "ml")
        ccl, _ = run(BarrierApp(iters=4), small_cluster, "ccl")
        assert ml.mean_flush_bytes > ccl.mean_flush_bytes

    def test_no_logging_logs_nothing(self, small_cluster):
        result, _ = run(BarrierApp(iters=2), small_cluster, "none")
        assert result.num_flushes == 0
        assert result.total_log_bytes == 0


class TestLogContents:
    def test_ml_logs_page_contents_ccl_logs_metadata(self, small_cluster):
        _, sys_ml = run(BarrierApp(iters=2), small_cluster, "ml")
        _, sys_ccl = run(BarrierApp(iters=2), small_cluster, "ccl")
        ml_log = sys_ml.nodes[0].hooks.log
        ccl_log = sys_ccl.nodes[0].hooks.log
        assert ml_log.select(PageCopyLogRecord)
        assert not ml_log.select(FetchLogRecord)
        assert ccl_log.select(FetchLogRecord)
        assert not ccl_log.select(PageCopyLogRecord)

    def test_ml_logs_incoming_diffs_ccl_logs_events(self, small_cluster):
        _, sys_ml = run(BarrierApp(iters=2), small_cluster, "ml")
        _, sys_ccl = run(BarrierApp(iters=2), small_cluster, "ccl")
        # every node homes some written pages in BarrierApp
        ml_in = sum(
            len(n.hooks.log.select(IncomingDiffLogRecord)) for n in sys_ml.nodes
        )
        ccl_ev = sum(
            len(n.hooks.log.select(UpdateEventLogRecord)) for n in sys_ccl.nodes
        )
        assert ml_in > 0 and ccl_ev > 0
        # event records are tiny; incoming-diff records carry contents
        ml_bytes = sum(
            r.nbytes
            for n in sys_ml.nodes
            for r in n.hooks.log.select(IncomingDiffLogRecord)
        )
        ccl_bytes = sum(
            r.nbytes
            for n in sys_ccl.nodes
            for r in n.hooks.log.select(UpdateEventLogRecord)
        )
        assert ccl_bytes < ml_bytes

    def test_ccl_logs_own_diffs_ml_does_not(self, small_cluster):
        _, sys_ml = run(BarrierApp(iters=2), small_cluster, "ml")
        _, sys_ccl = run(BarrierApp(iters=2), small_cluster, "ccl")
        assert any(n.hooks.log.select(OwnDiffLogRecord) for n in sys_ccl.nodes)
        assert not any(n.hooks.log.select(OwnDiffLogRecord) for n in sys_ml.nodes)

    def test_both_log_notices(self, small_cluster):
        for proto in ("ml", "ccl"):
            _, system = run(BarrierApp(iters=2), small_cluster, proto)
            assert any(n.hooks.log.select(NoticeLogRecord) for n in system.nodes)

    def test_window_tags_recorded_for_lock_programs(self, small_cluster):
        _, system = run(LockApp(iters=2), small_cluster, "ccl")
        tagged = [
            r
            for n in system.nodes
            for r in n.hooks.log.select(NoticeLogRecord)
            if r.window > 0
        ]
        assert tagged, "mid-interval acquires must carry window tags"


class TestFlushBehaviour:
    def test_ccl_flushes_once_per_nonempty_interval(self, small_cluster):
        app = BarrierApp(iters=3)
        _, system = run(app, small_cluster, "ccl")
        for node in system.nodes:
            # one flush per barrier (each interval writes and logs)
            assert node.hooks.log.num_flushes == pytest.approx(
                node.stats.counters["barriers"], abs=2
            )

    def test_ml_critical_path_flush_time_exceeds_ccl(self, small_cluster):
        ml, _ = run(BarrierApp(iters=4), small_cluster, "ml")
        ccl, _ = run(BarrierApp(iters=4), small_cluster, "ccl")
        ml_flush = ml.aggregate.time.get("log_flush")
        ccl_flush = ccl.aggregate.time.get("log_flush")
        assert ml_flush > ccl_flush

    def test_ccl_overlap_hides_disk_latency(self, small_cluster):
        """Critical-path flush cost is far below the disk's busy time."""
        _, system = run(BarrierApp(iters=4), small_cluster, "ccl")
        disk_busy = sum(d.busy_time for d in system.disks)
        on_path = sum(n.stats.time.get("log_flush") for n in system.nodes)
        assert disk_busy > 0
        assert on_path < 0.6 * disk_busy

    def test_ml_disk_time_fully_on_critical_path(self, small_cluster):
        _, system = run(BarrierApp(iters=4), small_cluster, "ml")
        disk_busy = sum(d.busy_time for d in system.disks)
        on_path = sum(n.stats.time.get("log_flush") for n in system.nodes)
        assert on_path == pytest.approx(disk_busy, rel=0.05)

    def test_home_diff_ablation_knob(self, small_cluster):
        """Paper-mode CCL (no home-write logging) produces a smaller log."""
        with_hd = DsmSystem(
            BarrierApp(iters=3), small_cluster, lambda _i: PolicyLogging(CCL),
        ).run()
        without_hd = DsmSystem(
            BarrierApp(iters=3), small_cluster,
            lambda _i: PolicyLogging(CCL_PAPER),
        ).run()
        assert without_hd.total_log_bytes <= with_hd.total_log_bytes
