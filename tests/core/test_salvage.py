"""Salvage-scan, recovery-planning, and storage-fault recovery tests.

The contract under test: recovery over an imperfect disk is bit-exact
or it refuses with a diagnosed error -- never silently wrong.  Torn
tails recover every whole frame in the surviving byte prefix; bit rot
quarantines the damaged record and everything after it; checkpoint
retention plus truncation still replays bit-exactly, falling back to
an earlier retained checkpoint when the salvaged log cannot cover the
replay window.
"""

import pytest

from repro.config import ClusterConfig, DiskConfig
from repro.core import NoticeLogRecord, StableLog, make_hooks_factory
from repro.core.checkpoint import Checkpointer
from repro.core.logformat import SEGMENT_HEADER_BYTES, decode_segment
from repro.core.recovery import run_recovery_experiment
from repro.core.salvage import SalvageReport, plan_recovery, salvage_log
from repro.dsm import DsmSystem, IntervalRecord, VectorClock
from repro.errors import RecoverabilityError, RecoveryError
from repro.sim import Disk, DiskFaultPlan, DiskFaults, Simulator


def notice(interval):
    rec = IntervalRecord(0, 0, VectorClock((1, 0)), (0, 1))
    return NoticeLogRecord(interval, 0, [rec])


def build_log(plan=None, intervals=5, per=2):
    """A log with one flushed two-record segment per interval."""
    sim = Simulator()
    disk = Disk(sim, DiskConfig())
    log = StableLog(disk, node_id=0, faults=plan)
    for i in range(intervals):
        for _ in range(per):
            log.append(notice(i))
        log.flush_async()
    sim.run()
    return log, sim


class TestSalvageClean:
    def test_pristine_log_salvages_whole(self):
        log, sim = build_log()
        out, report = salvage_log(log.durable_view(sim.now))
        assert report.clean
        assert report.salvaged_count == 10
        assert report.records_quarantined == 0
        assert report.segments_scanned == 5
        assert report.scan_bytes == sum(s.nbytes for s in log._segments)
        assert out.persistent_records == log._persistent

    def test_gc_segments_are_not_scanned(self):
        log, sim = build_log()
        log.truncate_below(2)
        out, report = salvage_log(log.durable_view(sim.now))
        assert report.segments_scanned == 3
        assert out.truncated_below == 2


class TestSalvageTorn:
    def torn_view(self, surviving_records):
        """A crash mid-flush of the last segment, tear cut so that
        exactly ``surviving_records`` whole frames fit the prefix."""
        log, sim = build_log(intervals=3)
        last = log._segments[-1]
        cut = SEGMENT_HEADER_BYTES + sum(
            r.nbytes for r in last.records[:surviving_records]
        )
        if surviving_records < last.count:
            cut += last.records[surviving_records].nbytes // 2
            cut = min(cut, last.nbytes - 1)
        view = log.durable_view(sim.now)
        view._retire_to = None  # no-op attr; keeps the view unshared
        view._segments = view._segments[:-1]
        view._persistent = view._persistent[: last.start]
        view._torn = (last, cut)
        return log, view, last

    @pytest.mark.parametrize("keep", [0, 1, 2])
    def test_tail_recovers_exactly_the_whole_frames(self, keep):
        log, view, last = self.torn_view(keep)
        out, report = salvage_log(view)
        assert report.salvaged_count == last.start + keep
        assert report.torn_records_recovered == keep
        assert (report.torn_segment == last.seq) == (keep > 0)
        # the salvaged set is always a prefix of the append sequence
        assert out.persistent_records == log._persistent[: last.start + keep]
        assert report.clean

    def test_salvaged_log_is_fully_durable(self):
        """Salvage output is a stable prefix: everything it kept counts
        as durable from its single (re-stamped) flush mark onward."""
        _log, view, last = self.torn_view(2)
        out, _report = salvage_log(view)
        mark_time = out._flush_marks[-1][1]
        assert out.durable_count(mark_time) == len(out.persistent_records)


class TestSalvageBitrot:
    # seed 1 at bitrot=0.4 flips a frame in segment 3 of this log shape
    # (pure draws: the pin is deterministic)
    SEED, RATE = 1, 0.4

    def test_quarantine_cuts_at_the_first_corrupt_segment(self):
        plan = DiskFaultPlan.uniform(self.SEED, bitrot=self.RATE)
        log, sim = build_log(plan)
        out, report = salvage_log(log.durable_view(sim.now))
        assert not report.clean
        assert report.corrupt_segment == 3
        assert report.corrupt_interval == 3
        assert report.salvaged_count == 6
        assert report.records_quarantined == 4
        assert out.persistent_records == log._persistent[:6]
        assert "corrupt segment 3" in report.describe()

    def test_quarantine_is_repeatable(self):
        plan = DiskFaultPlan.uniform(self.SEED, bitrot=self.RATE)
        log, sim = build_log(plan)
        first = salvage_log(log.durable_view(sim.now))[1]
        second = salvage_log(log.durable_view(sim.now))[1]
        assert (first.salvaged_count, first.corrupt_segment) == (
            second.salvaged_count, second.corrupt_segment
        )


class TestPlanRecovery:
    def test_clean_log_replays_every_sealed_interval(self):
        log, sim = build_log()
        report = SalvageReport(0, salvaged_count=10)
        assert plan_recovery(log, report, seals_done=5) == (5, 0, None)

    def test_quarantine_lowers_the_stop_seal(self):
        log, _sim = build_log()
        # salvage kept 6 records: interval 3 is the first incomplete one
        report = SalvageReport(0, salvaged_count=6, records_quarantined=4,
                               corrupt_segment=3, corrupt_interval=3)
        stop_at, free_until, snap = plan_recovery(log, report, seals_done=5)
        assert (stop_at, free_until, snap) == (3, 0, None)

    def test_nothing_durable_restarts_from_initial_state(self):
        log, _sim = build_log(intervals=1)
        report = SalvageReport(0, salvaged_count=0, records_quarantined=2)
        assert plan_recovery(log, report, seals_done=1) == (0, 0, None)

    def test_truncated_log_without_checkpoint_is_diagnosed(self):
        log, _sim = build_log()
        log.truncate_below(2)
        report = SalvageReport(0, salvaged_count=10)
        with pytest.raises(RecoveryError, match="no retained checkpoint"):
            plan_recovery(log, report, seals_done=5)

    def test_retained_checkpoint_anchors_a_truncated_log(self):
        log, _sim = build_log()
        log.truncate_below(2)

        class StubCheckpointer:
            def __init__(self, seals):
                self.snaps = {
                    s: type("Snap", (), {"seal": s})() for s in seals
                }

            def latest_before(self, seal):
                ok = [s for s in self.snaps if s <= seal]
                return self.snaps[max(ok)] if ok else None

        stop_at, free_until, snap = plan_recovery(
            log, SalvageReport(0, salvaged_count=10), 5, StubCheckpointer([2, 4])
        )
        assert (stop_at, free_until) == (5, 4)
        assert snap.seal == 4

    def test_checkpoint_below_the_watermark_is_rejected(self):
        log, _sim = build_log()
        log.truncate_below(3)

        class StubCheckpointer:
            def latest_before(self, seal):
                return type("Snap", (), {"seal": 1})()

        with pytest.raises(RecoveryError, match="no retained checkpoint"):
            plan_recovery(
                log, SalvageReport(0, salvaged_count=10), 5, StubCheckpointer()
            )


class TestRecoveryWithRetention:
    def test_restore_mode_replay_is_bit_exact(self):
        """Retention truncates the victim's log; replay must install the
        checkpoint image and still land bit-exact at the crash seal."""
        from repro.apps import make_app

        result = run_recovery_experiment(
            make_app("sor", n=24, iters=6),
            ClusterConfig.ultra5(num_nodes=4), "ml",
            failed_nodes=(1,), checkpoint_every=2, retention=3,
        )
        assert result.ok, result.victims[0].mismatches[:3]
        # retention must actually have retired checkpoints and truncated
        a = result.phase_a
        assert a.reclaimed_log_bytes > 0
        assert a.live_log_bytes < a.total_log_bytes

    @pytest.mark.parametrize("protocol, kwargs, seal, watermark", [
        ("ccl", {}, 7, 8),
        ("ml", {}, 7, 8),
        ("adaptive", {}, 7, 8),
        ("ccl", {"retention": 2, "at_seal": 3}, 2, 6),
    ])
    def test_seal_aligned_crash_over_a_truncated_log_is_refused_by_the_plan(
        self, monkeypatch, request, protocol, kwargs, seal, watermark
    ):
        """Retention reclaimed every checkpoint below the crash seal, so
        replay would start from scratch over a truncated log.  The plan
        refuses that, as it does for an ``at_time`` crash: phase B never
        starts."""
        if request.config.getoption("--sanitize"):
            pytest.skip("the sanitizer's auditor refuses a truncated CCL "
                        "log (missing-diff) in phase A, before the plan")
        from repro.apps import make_app
        from repro.core import recovery
        from repro.harness.scales import app_kwargs

        def no_phase_b(*_args):
            raise AssertionError("phase B ran")

        monkeypatch.setattr(recovery, "RecoveryWorld", no_phase_b)
        with pytest.raises(RecoveryError, match=(
            f"^node 0: no retained checkpoint at or below seal {seal} can "
            f"anchor replay over the truncated log; truncation watermark "
            f"{watermark}$"
        )):
            run_recovery_experiment(
                make_app("sor", **app_kwargs("sor", "test")),
                ClusterConfig.ultra5(num_nodes=4), protocol, failed_nodes=(0,),
                checkpoint_every=2, **{"retention": 1, **kwargs},
            )

    def test_truncation_bounds_live_log_bytes(self):
        from repro.apps import make_app

        results = {}
        for retention in (None, 2):
            results[retention] = run_recovery_experiment(
                make_app("shallow", n=16, steps=8),
                ClusterConfig.ultra5(num_nodes=4), "ml",
                failed_nodes=(1,), checkpoint_every=4, retention=retention,
            )
        assert all(r.ok for r in results.values())
        assert (
            results[2].phase_a.live_log_bytes
            < results[None].phase_a.live_log_bytes / 2
        )


def _test_scale_run(app, protocol, victim, checkpoint_every, retention):
    from repro.apps import make_app
    from repro.harness.scales import app_kwargs

    return run_recovery_experiment(
        make_app(app, **app_kwargs(app, "test")),
        ClusterConfig.ultra5(num_nodes=4), protocol, failed_nodes=(victim,),
        checkpoint_every=checkpoint_every, retention=retention,
    )


class TestRestoreModeDefects:
    """Restore-mode replays found to end in a mismatch, pinned until fixed.

    Under ``--sanitize`` the recoverability auditor already flags the
    truncated CCL logs (missing-diff) at the end of phase A."""

    @pytest.mark.xfail(strict=True, raises=(AssertionError, RecoverabilityError), reason=(
        "fft3d victim 0 replayed in restore mode ends with 4 pages wrong; "
        "unverified cause: private vt_block, gathered from w in skipped "
        "intervals, is published after the restore seal"))
    @pytest.mark.parametrize("protocol", ["ml", "ccl"])
    def test_fft3d_restore_mode(self, protocol):
        res = _test_scale_run("fft3d", protocol, 0, 2, 3)
        assert res.ok, res.victims[0].mismatches

    @pytest.mark.parametrize("victim", range(4))
    def test_fft3d_without_retention_recovers(self, victim):
        """Control: the checkpoint images are right, the restore is not."""
        assert _test_scale_run("fft3d", "ml", victim, 2, None).ok

    @pytest.mark.xfail(strict=True, raises=(AssertionError, RecoverabilityError), reason=(
        "a survivor's truncated log silently drops diffs the victim's "
        "range queries need: refusing ranges below the writer's watermark "
        "turns every such mismatch into a truncation error"))
    @pytest.mark.parametrize("victim", [1, 2, 3])
    def test_shallow_ccl_restore_mode(self, victim):
        res = _test_scale_run("shallow", "ccl", victim, 3, 2)
        assert res.ok, res.victims[0].mismatches


class TestMultiRecoveryDiskFaults:
    CONFIG = ClusterConfig.ultra5(num_nodes=4, page_size=256)

    def app(self):
        from tests.core.conftest import BarrierApp

        return BarrierApp(iters=4)

    def phase_a_total_time(self, plan):
        pilot = DsmSystem(
            self.app(), self.CONFIG, make_hooks_factory("ml"),
            disk_fault_plan=plan,
        )
        for node in pilot.nodes:
            node.checkpointer = Checkpointer(2)
        return pilot.run().total_time

    def test_one_victim_falls_back_while_the_other_replays(self):
        """Per-node bit rot on victim 1 only: its quarantined log stops
        replay early and anchors at an *earlier* retained checkpoint
        than victim 2's clean replay -- and both stay bit-exact."""
        def plan():
            # seed 2 (pure draws) corrupts victim 1's mid-log segment
            return DiskFaultPlan(
                2, nodes={1: DiskFaults(torn_tail=1.0, bitrot=0.15)}
            )

        t = 0.9 * self.phase_a_total_time(plan())
        res = run_recovery_experiment(
            self.app(), self.CONFIG, "ml", failed_nodes=(1, 2),
            at_time=t, checkpoint_every=2, disk_fault_plan=plan(),
        )
        assert res.ok, [v.mismatches for v in res.victims]
        v1, v2 = res.victims
        assert v1.salvage.records_quarantined > 0
        assert v2.salvage.clean
        assert v1.at_seal < v2.at_seal
        assert v1.free_until < v2.free_until

    def test_torn_victim_recovers_tail_records(self):
        """Crash inside a flush window: the torn tail's whole frames are
        salvaged and replay covers the extra interval they complete."""
        def plan():
            return DiskFaultPlan.uniform(21, torn_tail=1.0)

        pilot = DsmSystem(
            self.app(), self.CONFIG, make_hooks_factory("ml"),
            disk_fault_plan=plan(),
        )
        for node in pilot.nodes:
            node.checkpointer = Checkpointer(2)
        pilot.run()
        # pick a crash instant inside a real flush window of node 1
        # whose pure torn draw leaves at least one whole frame
        probe = plan()
        log1 = pilot.nodes[1].hooks.log
        pick = None
        for seg in log1._segments:
            if seg.sealed or seg.durable_time is None:
                continue
            if seg.durable_time <= seg.issue_time or seg.interval_lo < 3:
                continue
            surviving = probe.torn_bytes(1, seg.seq, seg.nbytes)
            if surviving is None:
                continue
            recs, _, _ = decode_segment(seg.encoded()[:surviving])
            if recs:
                pick = seg
                break
        assert pick is not None, "no torn candidate window in this run"
        t = (pick.issue_time + pick.durable_time) / 2
        res = run_recovery_experiment(
            self.app(), self.CONFIG, "ml", failed_nodes=(1, 2),
            at_time=t, checkpoint_every=2, disk_fault_plan=plan(),
        )
        assert res.ok, [v.mismatches for v in res.victims]
        salvage = res.victims[0].salvage
        assert salvage.torn_segment == pick.seq
        assert salvage.torn_records_recovered > 0

    def test_inert_disk_plan_matches_no_plan(self):
        res_bare = run_recovery_experiment(
            self.app(), self.CONFIG, "ml", failed_nodes=(1, 2),
            checkpoint_every=2,
        )
        res_inert = run_recovery_experiment(
            self.app(), self.CONFIG, "ml", failed_nodes=(1, 2),
            checkpoint_every=2, disk_fault_plan=DiskFaultPlan.none(),
        )
        assert res_bare.ok and res_inert.ok
        assert res_bare.recovery_time == res_inert.recovery_time
        assert ([v.at_seal for v in res_bare.victims]
                == [v.at_seal for v in res_inert.victims])
