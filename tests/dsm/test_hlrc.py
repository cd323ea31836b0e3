"""Integration tests for the HLRC coherence protocol.

Each test runs a small SPMD program through the full stack (engine,
network, page tables, diffs, locks/barriers) and checks both the data
outcome and the protocol events that produced it.
"""

import numpy as np
import pytest

from repro.memory import PageState
from tests.dsm.conftest import run_app

N = 4  # default rank count for these tests
ELEMS = 64  # one test page of int32 = 64 elements


def alloc_x(space, nprocs):
    space.allocate("x", (ELEMS,), np.int32, init=np.zeros(ELEMS, np.int32))


class TestSingleWriterPropagation:
    def test_reader_sees_writer_data_after_barrier(self):
        seen = {}

        def program(dsm):
            if dsm.rank == 0:
                yield from dsm.write("x")
                dsm.arr("x")[:] = np.arange(ELEMS)
            yield from dsm.barrier()
            yield from dsm.read("x")
            seen[dsm.rank] = dsm.arr("x").copy()

        run_app(alloc_x, program, nprocs=N)
        for rank in range(N):
            assert np.array_equal(seen[rank], np.arange(ELEMS)), rank

    def test_fault_counts_home_vs_remote(self):
        def homes(space, nprocs):
            return [0] * space.npages  # page homed at rank 0

        def program(dsm):
            if dsm.rank == 0:
                yield from dsm.write("x")
                dsm.arr("x")[:] = 7
            yield from dsm.barrier()
            yield from dsm.read("x")

        result, _sys = run_app(alloc_x, program, nprocs=N, homes=homes)
        stats = result.node_stats
        # home node never faults; every other rank faults exactly once
        assert stats[0].counters.get("page_faults", 0) == 0
        for r in range(1, N):
            assert stats[r].counters.get("page_faults", 0) == 1
        # home write produced no diffs at all
        assert result.aggregate.counters.get("diffs_created", 0) == 0

    def test_remote_writer_sends_diff_to_home(self):
        def homes(space, nprocs):
            return [1] * space.npages  # homed away from the writer

        def program(dsm):
            if dsm.rank == 0:
                yield from dsm.write("x", 0, 4)
                dsm.arr("x")[0:4] = 9
            yield from dsm.barrier()
            yield from dsm.read("x")
            assert dsm.arr("x")[0] == 9

        result, _sys = run_app(alloc_x, program, nprocs=2, homes=homes)
        assert result.node_stats[0].counters["diffs_created"] == 1
        assert result.node_stats[1].counters["diffs_applied"] == 1
        # diff carried only the 4 written words, not the page
        assert result.node_stats[0].counters["diff_bytes_sent"] < 100

    def test_remote_sole_writer_pays_a_diff_every_phase(self):
        """Homes never move: a page written by one remote rank phase
        after phase costs that rank one diff per phase, and a third rank
        reads every phase's value."""
        iters = 4

        def homes(space, nprocs):
            return [0] * space.npages

        def program(dsm):
            for it in range(iters):
                if dsm.rank == 1:
                    yield from dsm.write("x")
                    dsm.arr("x")[:] = it + 1
                yield from dsm.barrier()
                if dsm.rank == 2:
                    yield from dsm.read("x")
                    assert np.all(dsm.arr("x") == it + 1)
                yield from dsm.barrier()

        result, system = run_app(alloc_x, program, nprocs=N, homes=homes)
        assert result.node_stats[1].counters["diffs_created"] == iters
        assert result.node_stats[2].counters["page_faults"] == iters
        assert all(n.pagetable.entry(0).home == 0 for n in system.nodes)


class TestInvalidation:
    def test_second_write_invalidates_cached_readers(self):
        def program(dsm):
            if dsm.rank == 0:
                yield from dsm.write("x")
                dsm.arr("x")[:] = 1
            yield from dsm.barrier()
            yield from dsm.read("x")
            assert dsm.arr("x")[0] == 1
            yield from dsm.barrier()
            if dsm.rank == 0:
                yield from dsm.write("x")
                dsm.arr("x")[:] = 2
            yield from dsm.barrier()
            yield from dsm.read("x")
            assert dsm.arr("x")[0] == 2

        def homes(space, nprocs):
            return [0] * space.npages

        result, _sys = run_app(alloc_x, program, nprocs=3, homes=homes)
        for r in (1, 2):
            c = result.node_stats[r].counters
            assert c["page_faults"] == 2  # refetch after invalidation
            assert c["invalidations"] >= 1

    def test_writer_does_not_invalidate_its_own_copy(self):
        def homes(space, nprocs):
            return [1] * space.npages

        faults = {}

        def program(dsm):
            if dsm.rank == 0:
                yield from dsm.write("x")
                dsm.arr("x")[:] = 5
            yield from dsm.barrier()
            if dsm.rank == 0:
                # reading own data back must not fault again: the copy
                # stayed valid (only the initial cold write fault counts)
                yield from dsm.read("x")
                assert dsm.arr("x")[0] == 5

        result, _sys = run_app(alloc_x, program, nprocs=2, homes=homes)
        assert result.node_stats[0].counters.get("page_faults", 0) == 1

    def test_version_check_skips_stale_notices(self):
        """A copy fetched after the noticed write is not invalidated."""

        def homes(space, nprocs):
            return [2] * space.npages

        def program(dsm):
            if dsm.rank == 0:
                yield from dsm.write("x")
                dsm.arr("x")[:] = 3
            yield from dsm.barrier()
            if dsm.rank == 1:
                yield from dsm.read("x")  # fetches post-write version
            yield from dsm.barrier()
            if dsm.rank == 1:
                yield from dsm.read("x")  # notice already covered: no fault
                assert dsm.arr("x")[0] == 3

        result, _sys = run_app(alloc_x, program, nprocs=3, homes=homes)
        assert result.node_stats[1].counters["page_faults"] == 1


class TestMultipleWriters:
    def test_disjoint_writers_of_one_page_merge_at_home(self):
        """The multiple-writer protocol: false sharing without ping-pong."""

        def program(dsm):
            n = dsm.nprocs
            chunk = ELEMS // n
            lo, hi = dsm.rank * chunk, (dsm.rank + 1) * chunk
            yield from dsm.write("x", lo, hi)
            dsm.arr("x")[lo:hi] = dsm.rank + 1
            yield from dsm.barrier()
            yield from dsm.read("x")
            for r in range(n):
                assert np.all(dsm.arr("x")[r * chunk : (r + 1) * chunk] == r + 1)

        def homes(space, nprocs):
            return [0] * space.npages

        result, _sys = run_app(alloc_x, program, nprocs=N, homes=homes)
        # three remote writers each produced one diff for the single page
        assert result.node_stats[0].counters.get("diffs_created", 0) == 0
        total = sum(
            result.node_stats[r].counters.get("diffs_created", 0) for r in range(1, N)
        )
        assert total == N - 1

    def test_writer_copy_invalidated_by_concurrent_writer(self):
        """After the barrier a writer must refetch to see peers' words."""

        def program(dsm):
            half = ELEMS // 2
            lo = 0 if dsm.rank == 0 else half
            hi = half if dsm.rank == 0 else ELEMS
            yield from dsm.write("x", lo, hi)
            dsm.arr("x")[lo:hi] = dsm.rank + 10
            yield from dsm.barrier()
            yield from dsm.read("x")
            assert np.all(dsm.arr("x")[:half] == 10)
            assert np.all(dsm.arr("x")[half:] == 11)

        def homes(space, nprocs):
            return [2] * space.npages  # neither writer is home

        result, _sys = run_app(alloc_x, program, nprocs=3, homes=homes)
        # both writers' copies went stale and refetched after the barrier
        assert result.node_stats[0].counters["page_faults"] == 2
        assert result.node_stats[1].counters["page_faults"] == 2


class TestLocks:
    def test_lock_protected_counter_is_race_free(self):
        iters = 5

        def program(dsm):
            for _ in range(iters):
                yield from dsm.acquire(3)
                yield from dsm.read("x", 0, 1)
                yield from dsm.write("x", 0, 1)
                dsm.arr("x")[0] += 1
                yield from dsm.release(3)
            yield from dsm.barrier()
            yield from dsm.read("x", 0, 1)
            assert dsm.arr("x")[0] == dsm.nprocs * iters

        run_app(alloc_x, program, nprocs=N)

    def test_manager_self_acquire_and_contention(self):
        """Lock 0 is managed by node 0; node 0 also competes for it."""

        def program(dsm):
            for _ in range(3):
                yield from dsm.acquire(0)
                yield from dsm.read("x", 0, 1)
                yield from dsm.write("x", 0, 1)
                dsm.arr("x")[0] += 1
                yield from dsm.release(0)
            yield from dsm.barrier()
            yield from dsm.read("x", 0, 1)
            assert dsm.arr("x")[0] == 3 * dsm.nprocs

        run_app(alloc_x, program, nprocs=3)

    def test_notices_propagate_through_lock_chain_without_barrier(self):
        """Rank 1 must see rank 0's write via lock hand-off alone."""

        def program(dsm):
            if dsm.rank == 0:
                yield from dsm.acquire(1)
                yield from dsm.write("x", 0, 8)
                dsm.arr("x")[0:8] = 42
                yield from dsm.release(1)
                yield from dsm.barrier()
            else:
                yield from dsm.barrier()
                yield from dsm.acquire(1)
                yield from dsm.read("x", 0, 8)
                assert np.all(dsm.arr("x")[0:8] == 42)
                yield from dsm.release(1)

        run_app(alloc_x, program, nprocs=2)


class TestProtocolBookkeeping:
    def test_run_is_deterministic(self):
        def program(dsm):
            for it in range(3):
                lo = dsm.rank * (ELEMS // dsm.nprocs)
                hi = lo + ELEMS // dsm.nprocs
                yield from dsm.write("x", lo, hi)
                dsm.arr("x")[lo:hi] = it
                yield from dsm.barrier()
                yield from dsm.read("x")

        r1, _ = run_app(alloc_x, program, nprocs=N)
        r2, _ = run_app(alloc_x, program, nprocs=N)
        assert r1.total_time == r2.total_time
        assert r1.network_bytes == r2.network_bytes
        for a, b in zip(r1.node_stats, r2.node_stats):
            assert a.counters == b.counters

    def test_time_advances_and_breakdown_populated(self):
        def program(dsm):
            yield from dsm.compute(1e6)
            if dsm.rank == 0:
                yield from dsm.write("x")
                dsm.arr("x")[:] = 1
            yield from dsm.barrier()
            yield from dsm.read("x")

        result, _sys = run_app(alloc_x, program, nprocs=N)
        assert result.total_time > 0
        agg = result.aggregate
        assert agg.time.get("compute") == pytest.approx(
            N * 1e6 / result.config.cpu.flop_rate
        )
        assert agg.time.get("sync") > 0
        assert agg.time.get("fault") > 0

    def test_no_logging_summary_is_empty(self):
        def program(dsm):
            yield from dsm.barrier()

        result, _sys = run_app(alloc_x, program, nprocs=2)
        assert result.num_flushes == 0
        assert result.total_log_bytes == 0
        assert result.protocol == "none"

    def test_final_page_states_consistent(self):
        def homes(space, nprocs):
            return [0] * space.npages

        def program(dsm):
            if dsm.rank == 0:
                yield from dsm.write("x")
                dsm.arr("x")[:] = 1
            yield from dsm.barrier()
            yield from dsm.read("x")

        _result, sys_ = run_app(alloc_x, program, nprocs=2, homes=homes)
        for node in sys_.nodes:
            entry = node.pagetable.entry(0)
            if node.id == 0:
                assert entry.home == 0
            else:
                assert entry.state is PageState.CLEAN

    def test_interval_indices_advance_per_sync(self):
        def program(dsm):
            for _ in range(4):
                yield from dsm.barrier()

        _result, sys_ = run_app(alloc_x, program, nprocs=2)
        for node in sys_.nodes:
            assert node.interval_index == 4
            assert node.seal_count == 4


class TestSharedBarrierBatch:
    """One notice batch per barrier leaves every simulated byte alone."""

    def test_a_release_is_the_all_in_snapshot_when_a_fast_node_runs_ahead(
            self, monkeypatch):
        """Rank 1 seals its next interval and checks in again while the
        manager is still sending this episode's releases.  Every release
        is the per-node table query as of all-in; the early record waits
        for its own episode.  (Querying the live table per node let it
        into the later releases and the manager's own clock, whose prune
        then dropped it before the nodes released earlier ever got it.)"""
        from repro.dsm.hlrc import HlrcNode

        nprocs, ahead = 32, []
        send = HlrcNode._send

        def checking(self, dst, kind, payload):
            if kind == "barrier_release":
                live = self.table.records_not_covered_by(
                    self.barrier_state._arrived[dst])
                early = [r for r in live if r not in payload.records]
                assert payload.records == [r for r in live if r not in early]
                assert not any(payload.cut.covers_interval(r.node, r.index)
                               for r in early)
                ahead.extend(early)
            return send(self, dst, kind, payload)

        monkeypatch.setattr(HlrcNode, "_send", checking)

        def alloc(space, _nprocs):
            space.allocate("x", (nprocs * ELEMS,), np.int32)

        def program(dsm):
            for it in range(6):
                if dsm.rank == 1:  # a cheap write to a page homed here
                    mine = next(iter(dsm._node.pagetable.home_pages()))
                    yield from dsm.write_pages([mine])
                    dsm._node.memory.page_bytes(mine)[0] = it + 1
                yield from dsm.barrier()

        _result, system = run_app(alloc, program, nprocs=nprocs)
        assert ahead and {r.node for r in ahead} == {1}  # it did run ahead
        assert {n.vt.as_tuple() for n in system.nodes} == {(0, 6) + (0,) * 30}
        assert [n.stats.counters["records_pruned"] for n in system.nodes] == [6] * 32

    def test_water_logs_the_same_notice_bytes_per_node(self):
        """Lock chains + barriers: ``(records, notices, bytes)`` of each
        node's ``NoticeLogRecord`` stream, pinned from the per-node-list
        implementation this one replaced."""
        from repro.apps import make_app
        from repro.config import ClusterConfig
        from repro.core import make_hooks_factory
        from repro.core.logrecords import NoticeLogRecord
        from repro.dsm import DsmSystem
        from repro.harness.scales import app_kwargs

        system = DsmSystem(
            make_app("water", **app_kwargs("water", "test")),
            ClusterConfig.ultra5(num_nodes=8),
            make_hooks_factory("ccl"), protocol_name="ccl",
        )
        system.run()
        logged = []
        for node in system.nodes:
            recs = [r for r in node.hooks.log.all_records
                    if isinstance(r, NoticeLogRecord)]
            logged.append((len(recs), sum(len(r.records) for r in recs),
                           sum(r.nbytes for r in recs)))
        assert logged == [
            (24, 120, 6804), (21, 123, 6900), (24, 120, 6804), (21, 123, 6900),
            (18, 126, 6996), (15, 129, 7092), (12, 132, 7188), (9, 135, 7284),
        ]
        assert [n.stats.counters["records_pruned"] for n in system.nodes] == [144] * 8
