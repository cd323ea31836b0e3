"""Tests for crash-point capture."""

import copy
import gc
import weakref

import numpy as np
import pytest

from repro.core import (
    Checkpointer,
    CrashProbe,
    FailureSnapshot,
    make_hooks_factory,
)
from repro.dsm import DsmSystem
from repro.memory import PageState
from tests.core.conftest import BarrierApp


class TestCrashProbe:
    def test_snapshot_taken_at_requested_seal(self, small_cluster):
        system = DsmSystem(
            BarrierApp(iters=3), small_cluster, make_hooks_factory("ccl")
        )
        probe = CrashProbe(node=1, at_seal=2)
        system.add_probe(probe)
        system.run()
        snap = probe.snapshot
        assert snap is not None
        assert snap.node_id == 1
        assert snap.seal_count == 2
        assert snap.time > 0
        # one read-only frame per live page (valid copy or home), no image
        live = {
            p for p, (state, _v) in snap.page_states.items()
            if state is not PageState.INVALID or system.homes[p] == 1
        }
        assert set(snap.frames) == live and 0 < len(live) < system.space.npages
        for frame in snap.frames.values():
            assert frame.shape == (small_cluster.page_size,)
            assert not frame.flags.writeable

    def test_none_seal_keeps_last(self, small_cluster):
        system = DsmSystem(
            BarrierApp(iters=3), small_cluster, make_hooks_factory("ccl")
        )
        probe = CrashProbe(node=1)
        system.add_probe(probe)
        system.run()
        # 3 iterations x 2 barriers = 6 seals
        assert probe.snapshot.seal_count == 6

    def test_snapshot_page_states_plausible(self, small_cluster):
        system = DsmSystem(
            BarrierApp(iters=2), small_cluster, make_hooks_factory("ccl")
        )
        probe = CrashProbe(node=0)
        system.add_probe(probe)
        system.run()
        states = [s for (s, _v) in probe.snapshot.page_states.values()]
        # at a seal there are no dirty pages: twins were diffed away
        assert PageState.DIRTY not in states
        assert PageState.CLEAN in states

    def test_probe_ignores_other_nodes(self, small_cluster):
        system = DsmSystem(
            BarrierApp(iters=2), small_cluster, make_hooks_factory("ccl")
        )
        probe = CrashProbe(node=3, at_seal=1)
        system.add_probe(probe)
        system.run()
        assert probe.snapshot.node_id == 3

    def test_finalize_seals_crash_interval(self, small_cluster):
        system = DsmSystem(
            BarrierApp(iters=2), small_cluster, make_hooks_factory("ccl")
        )
        probe = CrashProbe(node=1, at_seal=4)
        system.add_probe(probe)
        system.run()
        probe.finalize()
        log = system.nodes[1].hooks.log
        # everything the victim buffered through seal 4 is queryable
        assert log.bundle(3)  # interval 3 sealed by sync op 4

    def test_observation_is_side_effect_free(self, small_cluster):
        """The probe must not perturb the statistics it observes.

        An earlier revision force-sealed the victim's log at *every*
        seal when ``at_seal`` was None, zero-cost-persisting each
        interval's volatile tail and deflating the victim's flush and
        volatile-peak statistics relative to a probe-free run.
        """
        def run(with_probe):
            system = DsmSystem(
                BarrierApp(iters=3), small_cluster, make_hooks_factory("ccl")
            )
            if with_probe:
                probe = CrashProbe(node=1)
                system.add_probe(probe)
            system.run()
            return system.nodes[1].hooks.log

        baseline = run(with_probe=False)
        probed = run(with_probe=True)
        assert probed.summary() == baseline.summary()
        assert probed.bytes_flushed == baseline.bytes_flushed
        assert probed.num_flushes == baseline.num_flushes
        assert probed.volatile_peak_bytes == baseline.volatile_peak_bytes

    def test_finalize_is_idempotent_and_skips_later_records(self, small_cluster):
        system = DsmSystem(
            BarrierApp(iters=3), small_cluster, make_hooks_factory("ccl")
        )
        probe = CrashProbe(node=2, at_seal=2)
        system.add_probe(probe)
        system.run()
        log = system.nodes[2].hooks.log
        records_before = len(log.persistent_records)
        probe.finalize()
        after_once = len(log.persistent_records)
        probe.finalize()
        assert len(log.persistent_records) == after_once
        # records appended after the crash point stay volatile unless a
        # natural flush already retired them
        assert after_once >= records_before

    def test_finalize_never_seals_a_record_that_recycled_a_freed_id(
        self, small_cluster
    ):
        """The probe must hold the crash interval's volatile tail itself.

        Checkpoint retention truncates the log past the crash interval;
        a log that then frees what it reclaimed lets CPython hand the
        freed records' ids to later ones, and a probe that remembered
        the tail by ``id`` would seal those strangers in ``finalize()``.
        Whether an id is recycled is the allocator's choice, so the test
        pins the cause: the tail records outlive everything but the probe.
        """
        system = DsmSystem(
            BarrierApp(iters=3), small_cluster, make_hooks_factory("ml")
        )
        for node in system.nodes:
            node.checkpointer = Checkpointer(1, retention=1)
        tail = []

        def watch_tail(node, seal_count):
            if node.id == 1 and seal_count == 3:
                tail.extend(weakref.ref(r) for r in node.hooks.log._volatile)

        probe = CrashProbe(node=1, at_seal=3)
        system.add_probe(probe)
        system.add_probe(watch_tail)
        system.run()
        log = system.nodes[1].hooks.log
        assert tail, "nothing was volatile at the crash point"
        assert log.truncated_below > 3, "the crash interval was not reclaimed"
        # what a reclaiming truncation is entitled to do: forget the records
        strangers = [copy.copy(r) for r in log.all_records]
        log._persistent.clear()
        log._volatile.clear()
        log._by_interval.clear()
        log._own_by_vtidx.clear()
        for segment in log._segments:
            segment.records.clear()
        gc.collect()
        assert all(ref() is not None for ref in tail), (
            "the crash tail was freed under the probe: its ids can be recycled"
        )
        log._volatile.extend(strangers)
        probe.finalize()
        assert log._volatile == strangers and not log._persistent, (
            "finalize() sealed records appended after the crash point"
        )

    def test_capture_all_retains_every_seal(self, small_cluster):
        system = DsmSystem(
            BarrierApp(iters=3), small_cluster, make_hooks_factory("ccl")
        )
        probe = CrashProbe(node=1, capture_all=True)
        system.add_probe(probe)
        system.run()
        assert sorted(probe.snapshots) == [1, 2, 3, 4, 5, 6]
        times = [probe.snapshots[k].time for k in sorted(probe.snapshots)]
        assert times == sorted(times)

    @pytest.mark.parametrize("capture_all", [False, True])
    def test_refreshed_snapshot_equals_a_fresh_one_at_every_seal(
        self, small_cluster, capture_all
    ):
        """A snapshot advanced over the watched pages only must read
        exactly as one built from every page, seal after seal."""
        system = DsmSystem(
            BarrierApp(iters=3), small_cluster, make_hooks_factory("ccl")
        )
        probe = CrashProbe(node=1, capture_all=capture_all)
        fresh = {}
        objects = set()

        def same(got, want):
            assert vars(got).keys() == vars(want).keys()
            for field, value in vars(want).items():
                if field == "frames":
                    assert got.frames.keys() == value.keys()
                    for p, frame in value.items():
                        assert np.array_equal(got.frames[p], frame), p
                else:
                    assert getattr(got, field) == value, field

        def check(node, seal_count):
            if node.id != 1:
                return
            want = fresh[seal_count] = FailureSnapshot(node.id)
            want.advance(node, seal_count, range(node.pagetable.npages))
            objects.add(id(probe.snapshot))
            same(probe.snapshot, want)

        system.add_probe(probe)
        system.add_probe(check)  # runs after the CrashProbe at each seal
        system.run()
        assert sorted(fresh) == [1, 2, 3, 4, 5, 6]
        if capture_all:
            # the retained snapshots are the only copies, and stay untouched
            assert probe.snapshot is probe.snapshots[6]
            for seal, want in fresh.items():
                same(probe.snapshots[seal], want)
        else:
            assert len(objects) == 1, "an overwrite built a new snapshot"
