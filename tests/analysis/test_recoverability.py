"""The recoverability auditor, including seeded log corruptions."""

import numpy as np
import pytest

from repro.analysis import audit_recoverability
from repro.analysis.programs import early_diff, generate, program_system
from repro.analysis.sanitize import install, is_installed
from repro.core import CCL, ML, CrashProbe, PolicyLogging
from repro.core.logrecords import (
    NoticeLogRecord,
    OwnDiffLogRecord,
    PageCopyLogRecord,
    UpdateEventLogRecord,
)
from repro.dsm import DsmSystem
from repro.core.recovery import _replay_victims, compare_state, plan_victim
from repro.errors import RecoverabilityError
from repro.sim.trace import Tracer

from tests.analysis.conftest import build_system, raw_run


def writer_program(dsm):
    """Two lock-ordered remote writers plus barriers: diffs, notices,
    fetches, and update events all end up in the logs."""
    for step in range(2):
        yield from dsm.acquire(0)
        yield from dsm.write("x", 0, 8)
        dsm.arr("x")[0:8] = dsm.rank * 10 + step
        yield from dsm.release(0)
        yield from dsm.barrier()
    yield from dsm.read("x")


def homed_at_last(space, nprocs):
    return [nprocs - 1] * space.npages


def run_logged(policy):
    system = build_system(
        writer_program, nprocs=3, homes=homed_at_last,
        hooks_factory=lambda _i: PolicyLogging(policy),
    )
    result = raw_run(system)
    assert result.completed
    return system


class TestCleanRuns:
    def test_ccl_run_is_fully_recoverable(self):
        system = run_logged(CCL)
        report = audit_recoverability(system)
        assert report.ok, [str(p) for p in report.problems]
        assert report.protocol == "ccl"
        assert report.events_checked > 0
        assert report.fetches_checked > 0
        assert report.content_checked

    def test_ml_run_is_fully_recoverable(self):
        system = run_logged(ML)
        report = audit_recoverability(system)
        assert report.ok, [str(p) for p in report.problems]
        assert report.protocol == "ml"
        assert report.fetches_checked > 0

    @pytest.mark.parametrize("protocol", ["failover", "adaptive"])
    def test_audit_dispatches_on_the_policy(self, protocol):
        """Failover logs CCL's skeleton with home diffs, so the CCL pass
        runs on it; adaptive's logs mix two policies and are skipped."""
        system = program_system(generate(33), protocol,
                                tracer=Tracer(enabled=True),
                                replication=2 if protocol == "failover" else 1)
        assert raw_run(system).completed
        report = audit_recoverability(system)
        assert report.ok and report.protocol == protocol
        if protocol == "adaptive":
            assert "mix" in report.skipped_reason
        else:
            assert report.skipped_reason is None and report.content_checked
            assert (report.fetches_checked, report.events_checked) == (17, 12)

    def test_unlogged_run_is_skipped(self):
        system = build_system(writer_program, nprocs=3, homes=homed_at_last)
        assert raw_run(system).completed
        report = audit_recoverability(system)
        assert report.ok
        assert report.skipped_reason is not None


class TestEarlyDiffReaccess:
    """The fetch constraint: a logged fetch at version V is rebuilt from
    the diffs V covers that existed when the fetch happened.  The
    fetcher's own end-of-interval diff carries the same clock as an
    early diff and a version fetched in that interval, but is sealed
    after the fetch, so it must not enter the rebuild."""

    @pytest.mark.parametrize("protocol", ["ccl", "ml"])
    @pytest.mark.parametrize("reaccess", ["reread", "rewrite"])
    def test_audit_is_clean(self, reaccess, protocol):
        system = program_system(early_diff(reaccess), protocol,
                                tracer=Tracer(enabled=True))
        assert raw_run(system).completed
        report = audit_recoverability(system)
        assert report.ok, [str(p) for p in report.problems]
        assert report.fetches_checked == 3
        assert report.content_checked

    @pytest.mark.parametrize("protocol", ["ccl", "ml"])
    def test_crash_at_every_traced_instant_recovers(self, protocol):
        """The clean audit is right: rank 1 recovers bit-exactly from a
        crash at any traced instant after its first seal, each replay
        re-fetching the version the audit rebuilds."""
        system = program_system(early_diff("rewrite"), protocol,
                                tracer=Tracer(enabled=True))
        probe = CrashProbe(1, capture_all=True)
        system.add_probe(probe)
        assert raw_run(system).completed
        probe.finalize()
        recovered = 0
        for t in sorted({ev.time for ev in system.tracer.events}):
            plan = plan_victim(system, probe, t)
            if plan.stop_at < 1:
                continue  # nothing sealed yet: a restart, not a replay
            replay = _replay_victims(system.app, system.config, protocol,
                                     system, [plan])[1]
            assert compare_state(replay, plan.snapshot,
                                 system.config.page_size) == [], t
            recovered += 1
        assert recovered >= 5


class TestSeededCorruption:
    def test_dropped_diff_is_reported_precisely(self):
        system = run_logged(CCL)
        # pick one update event a home logged, then erase the diff it
        # references from the writer's own log
        event = page = None
        for node in system.nodes:
            for rec in node.hooks.log.all_records:
                if isinstance(rec, UpdateEventLogRecord) and rec.pages:
                    event, page = rec, rec.pages[0]
                    break
            if event is not None:
                break
        assert event is not None, "no update event was logged"

        writer_log = system.nodes[event.writer].hooks.log
        for rec in writer_log.all_records:
            if isinstance(rec, OwnDiffLogRecord) and rec.vt_index == event.writer_index:
                rec.diffs = [d for d in rec.diffs if d.page != page]
                rec.home_diffs = [d for d in rec.home_diffs if d.page != page]
                rec.early = [e for e in rec.early if e[1].page != page]

        report = audit_recoverability(system)
        assert not report.ok
        first = report.first_unreachable
        assert first.kind == "missing-diff"
        assert first.page == page
        assert f"writer {event.writer}" in first.message
        assert f"interval {event.writer_index}" in first.message
        with pytest.raises(RecoverabilityError, match="missing-diff"):
            report.raise_if_failed()

    def test_reordered_notices_are_reported(self):
        system = run_logged(CCL)
        # find a notice bundle whose records have distinct timestamps
        # and reverse it: replay would invalidate out of causal order
        tampered = False
        for node in system.nodes:
            for rec in node.hooks.log.all_records:
                if isinstance(rec, NoticeLogRecord) and len(rec.records) >= 2:
                    totals = [r.vt.total for r in rec.records]
                    if len(set(totals)) >= 2:
                        rec.records.reverse()
                        tampered = True
                        break
            if tampered:
                break
        assert tampered, "no multi-record notice bundle to corrupt"

        report = audit_recoverability(system)
        assert not report.ok
        assert report.first_unreachable.kind == "notice-order"

    def test_ml_corrupted_page_copy_is_reported(self):
        system = run_logged(ML)
        rec = next(
            r
            for node in system.nodes
            for r in node.hooks.log.all_records
            if isinstance(r, PageCopyLogRecord) and r.contents is not None
        )
        rec.contents[0] ^= np.int32(1)  # single-bit rot in the logged copy
        report = audit_recoverability(system)
        assert not report.ok
        assert report.first_unreachable.kind == "content-mismatch"
        assert report.first_unreachable.page == rec.page


class TestSanitizeWrapper:
    def test_install_is_idempotent_and_reversible(self):
        if is_installed():
            pytest.skip("sanitizer already active for the whole session")
        original = DsmSystem.run
        undo = install()
        assert is_installed()
        noop = install()  # second install must not double-wrap
        noop()
        assert is_installed()
        undo()
        assert not is_installed()
        assert DsmSystem.run is original

    def test_sanitized_run_passes_clean_program(self):
        undo = install()
        try:
            system = build_system(
                writer_program, nprocs=3, homes=homed_at_last,
                hooks_factory=lambda _i: PolicyLogging(CCL),
            )
            assert system.run().completed  # checks run inside .run()
        finally:
            undo()
