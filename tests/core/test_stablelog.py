"""Unit tests for the stable-storage log."""

import numpy as np
import pytest

from repro.config import DiskConfig
from repro.core import (
    FetchLogRecord,
    NoticeLogRecord,
    OwnDiffLogRecord,
    StableLog,
)
from repro.core.logformat import SEGMENT_HEADER_BYTES
from repro.dsm import IntervalRecord, VectorClock
from repro.errors import LoggingProtocolError, SimulationError, StorageFaultError
from repro.memory import Diff
from repro.sim import Disk, DiskFaultPlan, Simulator


def make_log(sim=None, latency=0.01, bw=1e6):
    sim = sim or Simulator()
    disk = Disk(
        sim,
        DiskConfig(access_latency_s=latency, write_latency_s=latency,
                   bandwidth_bps=bw),
    )
    return StableLog(disk), sim


def notice(interval, window=0, npages=2):
    rec = IntervalRecord(0, 0, VectorClock((1, 0)), tuple(range(npages)))
    return NoticeLogRecord(interval, window, [rec])


def own_diff(interval, vt_index, page, home=False):
    d = Diff(page, [(0, np.array([7], dtype=np.uint32))])
    if home:
        return OwnDiffLogRecord(interval, 0, vt_index=vt_index,
                                vt=VectorClock((1, 0)), home_diffs=[d])
    return OwnDiffLogRecord(interval, 0, vt_index=vt_index,
                            vt=VectorClock((1, 0)), diffs=[d])


class TestBuffering:
    def test_append_accumulates_volatile_bytes(self):
        log, _sim = make_log()
        r = notice(0)
        log.append(r)
        assert log.volatile_bytes == r.nbytes
        log.append(notice(0))
        assert log.volatile_bytes == 2 * r.nbytes

    def test_volatile_peak_tracked(self):
        log, _sim = make_log()
        log.append(notice(0))
        peak = log.volatile_peak_bytes
        log.force_seal()
        assert log.volatile_bytes == 0
        assert log.volatile_peak_bytes == peak


class TestFlushing:
    def test_sync_flush_blocks_and_counts(self):
        log, sim = make_log(latency=0.5, bw=1e9)
        log.append(notice(0))
        spent = {}

        def body():
            spent["t"] = yield from log.flush_sync()

        sim.spawn(body(), name="p")
        sim.run()
        assert spent["t"] == pytest.approx(0.5, rel=1e-3)
        assert log.num_flushes == 1
        assert log.bytes_flushed > 0
        assert log.volatile_bytes == 0

    def test_empty_sync_flush_is_free_and_uncounted(self):
        log, sim = make_log()

        def body():
            t = yield from log.flush_sync()
            assert t == 0.0

        sim.spawn(body(), name="p")
        sim.run()
        assert log.num_flushes == 0
        assert log.disk.num_writes == 0

    def test_async_flush_returns_signal(self):
        log, sim = make_log(latency=0.25, bw=1e9)
        log.append(notice(0))
        sig = log.flush_async()
        assert sig is not None and not sig.triggered
        sim.run()
        assert sig.triggered
        assert log.num_flushes == 1

    def test_async_flush_empty_returns_none(self):
        log, _sim = make_log()
        assert log.flush_async() is None

    def test_force_seal_moves_without_disk(self):
        log, _sim = make_log()
        log.append(notice(3))
        assert log.force_seal() == 1
        assert log.num_flushes == 0
        assert log.disk.num_writes == 0
        assert len(log.bundle(3)) == 1

    def test_mean_accounting_through_summary(self):
        log, sim = make_log()
        log.append(notice(0))
        log.flush_async()
        log.append(notice(1))
        log.append(notice(1))
        log.flush_async()
        sim.run()
        s = log.summary()
        assert s["flushes"] == 2
        assert s["records"] == 3
        assert s["bytes_flushed"] == log.bytes_flushed


class TestQueries:
    def test_bundle_filters_by_interval(self):
        log, _sim = make_log()
        log.append(notice(0))
        log.append(notice(1))
        log.append(notice(1, window=2))
        log.force_seal()
        assert len(log.bundle(0)) == 1
        assert len(log.bundle(1)) == 2
        assert log.bundle_bytes(1) == sum(r.nbytes for r in log.bundle(1))

    def test_select_by_type_and_window(self):
        log, _sim = make_log()
        log.append(notice(0, window=1))
        log.append(FetchLogRecord(0, 1, page=5, version=VectorClock((1, 0))))
        log.force_seal()
        assert len(log.select(NoticeLogRecord, interval=0)) == 1
        assert len(log.select(FetchLogRecord, interval=0, window=1)) == 1
        assert log.select(FetchLogRecord, interval=0, window=2) == []

    def test_find_own_diff_by_page_and_interval(self):
        log, _sim = make_log()
        log.append(own_diff(0, vt_index=0, page=3))
        log.append(own_diff(1, vt_index=1, page=3))
        log.append(own_diff(2, vt_index=2, page=9, home=True))
        log.force_seal()
        d, vt = log.find_own_diff(3, 1)
        assert d.page == 3
        d, vt = log.find_own_diff(9, 2)  # home-write diffs are findable too
        assert d.page == 9

    def test_find_own_diff_missing_raises(self):
        log, _sim = make_log()
        log.force_seal()
        with pytest.raises(LoggingProtocolError):
            log.find_own_diff(0, 0)


class TestSegments:
    def test_each_flush_writes_one_segment(self):
        log, sim = make_log()
        log.append(notice(0))
        log.append(notice(0))
        log.flush_async()
        log.append(notice(1))
        log.flush_async()
        sim.run()
        assert len(log._segments) == 2
        a, b = log._segments
        assert (a.start, a.count) == (0, 2)
        assert (b.start, b.count) == (2, 1)
        assert a.durable_time is not None and not a.sealed

    def test_segment_bytes_match_the_encoding(self):
        log, sim = make_log()
        log.append(notice(0))
        log.append(FetchLogRecord(0, 0, page=5, version=VectorClock((1, 0))))
        log.flush_async()
        sim.run()
        seg = log._segments[0]
        assert seg.nbytes == len(seg.encoded())
        assert seg.nbytes == SEGMENT_HEADER_BYTES + sum(
            r.nbytes for r in seg.records
        )

    def test_the_running_size_and_the_summed_size_agree(self):
        """The flush paths size a segment from the buffer's running
        ``volatile_bytes``; ``seal_records`` sums its subset.  Either
        way the segment reads what its records sum and encode to."""
        log, sim = make_log()
        for interval in range(4):
            log.append(notice(interval, npages=interval + 1))
            log.append(own_diff(interval, interval, page=interval))
            log.append(own_diff(interval, interval, page=9, home=True))
            if interval < 2:
                log.flush_async()
            elif interval == 2:
                kept = log._volatile[-1]
                log.seal_records(log._volatile[:2])
                assert log._volatile == [kept]
                assert log.volatile_bytes == kept.nbytes
            else:
                log.force_seal()
        log.append(notice(4))
        sim.spawn(log.flush_sync(), name="sync")
        sim.run()
        assert [s.count for s in log._segments] == [3, 3, 2, 4, 1]
        assert [s.sealed for s in log._segments] == [False, False, True, True, False]
        for seg in log._segments:
            assert seg.nbytes == len(seg.encoded())
            assert seg.nbytes == SEGMENT_HEADER_BYTES + sum(
                r.nbytes for r in seg.records
            )
        assert log.volatile_bytes == 0

    def test_golden_framed_byte_accounting(self):
        """Pin the exact on-disk sizes of the framed format.

        These literals change only when the frame/segment layout
        changes -- which must be a deliberate format revision, because
        every Table-2 number and recovery read charge is derived from
        them.
        """
        n = notice(0)
        f = FetchLogRecord(1, 0, page=5, version=VectorClock((1, 0)))
        assert n.nbytes == 52
        assert f.nbytes == 32
        log, sim = make_log()
        log.append(notice(0))
        log.append(notice(0))
        log.flush_async()
        log.append(notice(1))
        log.append(FetchLogRecord(1, 0, page=5, version=VectorClock((1, 0))))
        log.flush_async()
        sim.run()
        assert [s.nbytes for s in log._segments] == [120, 100]
        assert log.bytes_flushed == 220
        assert log.disk.bytes_written == 220


class TestTruncation:
    def fill(self, intervals=4):
        log, sim = make_log()
        for i in range(intervals):
            log.append(notice(i))
            log.append(notice(i))
            log.flush_async()
        sim.run()
        return log, sim

    def test_truncate_reclaims_segments_below_the_seal(self):
        log, _sim = self.fill()
        total = log.live_log_bytes
        freed = log.truncate_below(2)
        assert freed > 0
        assert log.reclaimed_bytes == freed
        assert log.live_log_bytes == total - freed
        assert [s.gc for s in log._segments] == [True, True, False, False]
        # the flat persistent sequence survives (durability marks are
        # count-based); only the queryable index is cut
        assert len(log.persistent_records) == 8

    def test_queries_below_the_watermark_raise(self):
        log, _sim = self.fill()
        log.truncate_below(2)
        with pytest.raises(LoggingProtocolError, match="truncated"):
            log.bundle(1)
        with pytest.raises(LoggingProtocolError, match="truncated"):
            log.select(NoticeLogRecord, interval=0)
        assert len(log.bundle(2)) == 2

    def test_truncate_is_monotone_and_idempotent(self):
        log, _sim = self.fill()
        freed = log.truncate_below(2)
        assert log.truncate_below(2) == 0
        assert log.truncate_below(1) == 0
        assert log.reclaimed_bytes == freed
        assert log.truncated_below == 2

    def test_summary_reports_live_and_reclaimed(self):
        log, _sim = self.fill()
        log.truncate_below(3)
        s = log.summary()
        assert s["live_log_bytes"] == log.live_log_bytes
        assert s["reclaimed_bytes"] == log.reclaimed_bytes
        assert s["reclaimed_bytes"] > 0


class TestWriteErrors:
    def faulted_log(self, write_error, sim=None):
        sim = sim or Simulator()
        disk = Disk(sim, DiskConfig())
        plan = DiskFaultPlan.uniform(7, write_error=write_error)
        return StableLog(disk, node_id=0, faults=plan), sim

    def test_transient_errors_retry_and_succeed(self):
        log, sim = self.faulted_log(write_error=0.5)
        for i in range(8):
            log.append(notice(i))
            log.flush_async()
        sim.run()
        assert log.flush_retries > 0
        # every flush eventually landed: all records are durable
        assert log.durable_count(sim.now) == 8
        # each retry pays a full disk write on top of the first attempt
        assert log.disk.num_writes == log.num_flushes + log.flush_retries

    def test_retries_cost_time(self):
        clean, clean_sim = make_log()
        clean.append(notice(0))
        clean.flush_async()
        clean_sim.run()
        log, sim = self.faulted_log(write_error=0.5)
        for i in range(8):
            log.append(notice(i))
            log.flush_async()
        sim.run()
        assert sim.now > clean_sim.now

    def test_exhausted_retries_raise_storage_fault(self):
        log, sim = self.faulted_log(write_error=1.0)
        log.append(notice(0))
        log.flush_async()
        with pytest.raises(SimulationError) as info:
            sim.run()
        assert isinstance(info.value.__cause__, StorageFaultError)
        assert "failed" in str(info.value.__cause__)

    def test_inert_plan_is_byte_identical(self):
        runs = []
        for plan in (None, DiskFaultPlan.none()):
            sim = Simulator()
            disk = Disk(sim, DiskConfig())
            log = StableLog(disk, node_id=0, faults=plan)
            for i in range(3):
                log.append(notice(i))
                log.flush_async()
            sim.run()
            runs.append((sim.now, log.summary(), log.disk.num_writes))
        assert runs[0] == runs[1]


class TestDurableViewTorn:
    def test_in_flight_flush_exposes_a_torn_tail(self):
        sim = Simulator()
        disk = Disk(sim, DiskConfig())
        plan = DiskFaultPlan.uniform(3, torn_tail=1.0)
        log = StableLog(disk, node_id=0, faults=plan)
        log.append(notice(0))
        log.flush_async()
        sim.run()
        log.append(notice(1))
        log.flush_async()  # in flight: sim not stepped again
        t = sim.now + 1e-9
        view = log.durable_view(t)
        assert len(view.persistent_records) == 1
        assert view._torn is not None
        seg, surviving = view._torn
        assert seg.start == 1
        assert 0 <= surviving < seg.nbytes
        # pure draw: re-probing the same instant sees the same tear
        again = log.durable_view(t)
        assert again._torn[1] == surviving

    def test_no_faults_means_no_torn_tail(self):
        log, sim = make_log()
        log.append(notice(0))
        log.flush_async()
        sim.run()
        log.append(notice(1))
        log.flush_async()
        view = log.durable_view(sim.now + 1e-9)
        assert view._torn is None
        assert len(view.persistent_records) == 1
