"""Integration tests for crash recovery (both protocols).

The central invariant: replaying a crashed node from its log must
reproduce its memory image, page states, page versions, and vector
clock **bit-for-bit** as they were at the crash point -- and do so
faster than re-executing the program.
"""

import gc
import weakref

import pytest

from repro.core import (
    CrashProbe,
    make_hooks_factory,
    replay_failed_node,
    run_recovery_experiment,
)
from repro.core.failover_recovery import recover_via_failover
from repro.dsm import DsmSystem
from repro.errors import ConfigError, RecoveryError
from tests.core.conftest import BarrierApp, LockApp


def reexecution_time(app, config):
    """The paper's baseline: rerun from the global initial state."""
    return DsmSystem(app, config).run().total_time


class TestRecoveryCorrectness:
    @pytest.mark.parametrize("protocol", ["ml", "ccl"])
    @pytest.mark.parametrize("failed_node", [0, 1, 3])
    def test_barrier_app_recovers_exact_state(
        self, small_cluster, protocol, failed_node
    ):
        res = run_recovery_experiment(
            BarrierApp(iters=3), small_cluster, protocol, (failed_node,)
        )
        assert res.ok, res.victims[0].mismatches
        assert res.recovery_time > 0

    @pytest.mark.parametrize("protocol", ["ml", "ccl"])
    @pytest.mark.parametrize("failed_node", [0, 2])
    def test_lock_app_recovers_exact_state(
        self, small_cluster, protocol, failed_node
    ):
        res = run_recovery_experiment(
            LockApp(iters=2), small_cluster, protocol, (failed_node,)
        )
        assert res.ok, res.victims[0].mismatches

    @pytest.mark.parametrize("protocol", ["ml", "ccl"])
    def test_recovery_at_intermediate_seal(self, small_cluster, protocol):
        res = run_recovery_experiment(
            BarrierApp(iters=4, flops=1e6, imbalance=2.0), small_cluster, protocol, failed_nodes=(1,), at_seal=3
        )
        assert res.ok, res.victims[0].mismatches
        assert res.victims[0].at_seal == 3

    def test_recovery_time_grows_with_crash_point(self, small_cluster):
        times = []
        for seal in (2, 4, 6):
            res = run_recovery_experiment(
                BarrierApp(iters=4, flops=1e6, imbalance=2.0), small_cluster, "ccl",
                failed_nodes=(1,), at_seal=seal,
            )
            assert res.ok, res.victims[0].mismatches
            times.append(res.recovery_time)
        assert times[0] < times[1] < times[2]


class TestRecoverySpeed:
    def test_recovery_faster_than_reexecution(self, small_cluster):
        app = BarrierApp(iters=4, flops=1e6, imbalance=2.0)
        t_reexec = reexecution_time(BarrierApp(iters=4, flops=1e6, imbalance=2.0), small_cluster)
        for protocol in ("ml", "ccl"):
            res = run_recovery_experiment(
                BarrierApp(iters=4, flops=1e6, imbalance=2.0), small_cluster, protocol, failed_nodes=(1,)
            )
            assert res.ok, res.victims[0].mismatches
            assert res.recovery_time < t_reexec, protocol

    def test_ccl_recovery_beats_ml_recovery(self, small_cluster):
        """With enough pages per interval, batched prefetch beats the
        per-miss disk reads of ML-recovery (the paper's regime)."""
        app = lambda: BarrierApp(  # noqa: E731
            iters=4, elems=2048, flops=1e6, imbalance=2.0
        )
        ml = run_recovery_experiment(app(), small_cluster, "ml", failed_nodes=(1,))
        ccl = run_recovery_experiment(app(), small_cluster, "ccl", failed_nodes=(1,))
        assert ml.ok and ccl.ok
        assert ccl.recovery_time < ml.recovery_time

    def test_ml_pays_memory_miss_idle_ccl_does_not(self, small_cluster):
        ml = run_recovery_experiment(
            BarrierApp(iters=3), small_cluster, "ml", failed_nodes=(1,)
        )
        ccl = run_recovery_experiment(
            BarrierApp(iters=3), small_cluster, "ccl", failed_nodes=(1,)
        )
        # ML replays faults against the disk log
        assert ml.victims[0].stats.counters.get("replay_faults", 0) > 0
        assert ml.victims[0].stats.time.get("miss_read") > 0
        # CCL prefetches everything: zero replay faults by construction
        assert ccl.victims[0].stats.counters.get("replay_faults", 0) == 0
        assert ccl.victims[0].stats.counters.get("pages_prefetched", 0) > 0

    def test_ccl_reconstructs_old_versions_when_home_advanced(self, small_cluster):
        """Crashing mid-run forces the checkpoint+diff reconstruction path."""
        res = run_recovery_experiment(
            BarrierApp(iters=4, flops=1e6, imbalance=2.0), small_cluster, "ccl", failed_nodes=(1,), at_seal=3
        )
        assert res.ok, res.victims[0].mismatches
        assert res.victims[0].stats.counters.get("prefetch_rebuilt", 0) > 0

    def test_prefetch_modes_cover_all_pages(self, small_cluster):
        """Every prefetched page is served warm (delta), direct, or
        rebuilt from a checkpoint -- and none of them faults."""
        res = run_recovery_experiment(
            BarrierApp(iters=3), small_cluster, "ccl", failed_nodes=(1,)
        )
        assert res.ok
        c = res.victims[0].stats.counters
        modes = (
            c.get("prefetch_direct", 0)
            + c.get("prefetch_delta", 0)
            + c.get("prefetch_rebuilt", 0)
        )
        assert modes == c.get("pages_prefetched", 0) > 0
        assert c.get("replay_faults", 0) == 0


class TestRecoveryErrors:
    def test_recovery_requires_logging_protocol(self, small_cluster):
        with pytest.raises(RecoveryError):
            run_recovery_experiment(
                BarrierApp(iters=2), small_cluster, "none", failed_nodes=(0,)
            )

    def test_unreachable_seal_raises(self, small_cluster):
        with pytest.raises(RecoveryError, match="never reached"):
            run_recovery_experiment(
                BarrierApp(iters=2), small_cluster, "ccl",
                failed_nodes=(0,), at_seal=999,
            )


class _PhaseAMustNotRun:
    """An application that fails the test the moment phase A touches it."""

    def __getattr__(self, name):
        raise AssertionError(f"phase A ran (read {name!r})")


class TestExperimentRefusals:
    """Whatever the driver cannot serve is refused in one line before
    phase A runs, not diagnosed (or silently ignored) after it."""

    @pytest.mark.parametrize("kwargs, error, match", [
        (dict(at_seal=0), RecoveryError, "at least one sealed interval"),
        (dict(at_seal=1, at_time=0.01), ConfigError, "not both"),
        (dict(retention=2), ConfigError, "needs checkpoint_every"),
        (dict(failed_nodes=()), RecoveryError, "bad failed-node set"),
        (dict(failed_nodes=(1, 1)), RecoveryError, "bad failed-node set"),
        (dict(protocol="failover", replication=2, at_seal=1), ConfigError,
         "crash at_time"),
    ], ids=["at-seal-0", "seal-and-time", "retention-alone", "no-victims",
            "duplicate-victim", "promotion-at-seal"])
    def test_refused_before_phase_a(self, small_cluster, kwargs, error, match):
        kwargs = {"protocol": "ccl", "failed_nodes": (1,), **kwargs}
        with pytest.raises(error, match=match) as err:
            run_recovery_experiment(_PhaseAMustNotRun(), small_cluster, **kwargs)
        assert "\n" not in str(err.value)


class TestEntryPointValidation:
    """The two functions chaos, the model checker and the benchmark call
    on a system they built refuse a bad crash in one line, up front."""

    @pytest.fixture(scope="class")
    def phase_a(self):
        from repro.config import ClusterConfig

        config = ClusterConfig.ultra5(num_nodes=4, page_size=256)
        system = DsmSystem(
            BarrierApp(iters=2), config, make_hooks_factory("failover"),
            replication=2,
        )
        probe = CrashProbe(1)
        system.add_probe(probe)
        system.run()
        probe.finalize()
        return config, system, probe.snapshot.seal_count

    @pytest.mark.parametrize("victim, dead, stop_at, match", [
        (9, (), None, "failed node 9 is not a valid rank"),
        (-1, (), None, "failed node -1 is not a valid rank"),
        (1, (7,), None, "failed node 7 is not a valid rank"),
        (1, (0, 2, 3), None, "at least one node must survive"),
        (1, (), 0, "at least one sealed interval"),
    ])
    @pytest.mark.parametrize("entry", ["replay", "failover"])
    def test_bad_crash_is_a_one_line_refusal(
        self, phase_a, entry, victim, dead, stop_at, match
    ):
        config, system, seals = phase_a
        stop_at = seals if stop_at is None else stop_at
        plog = system.nodes[1].hooks.log
        with pytest.raises(RecoveryError, match=match) as err:
            if entry == "replay":
                replay_failed_node(
                    BarrierApp(iters=2), config, "failover", system, victim,
                    plog, stop_at, dead=dead,
                )
            else:
                recover_via_failover(
                    config, system, victim, plog, stop_at, dead=dead
                )
        assert "\n" not in str(err.value)

    def test_unreachable_stop_at_names_victim_and_seals(self, phase_a):
        """A replay asked for more seals than the program has ends in a
        diagnosis, not a DeadlockError listing responder processes."""
        config, system, seals = phase_a
        with pytest.raises(RecoveryError) as err:
            replay_failed_node(
                BarrierApp(iters=2), config, "failover", system, 1,
                system.nodes[1].hooks.log, stop_at=10**6,
            )
        message = str(err.value)
        assert "victim 1" in message and "seal 1000000" in message
        assert f"after seal {seals}" in message
        assert "responder" not in message

    def test_replay_node_is_freed_without_the_cycle_collector(self, phase_a):
        """A replay node carries a whole memory image; a reference cycle
        (an engine pointing back at its node, say) would keep every
        replay of a sweep alive until a full collection."""
        config, system, seals = phase_a
        gc.collect()
        gc.disable()
        try:
            replay, _seconds = replay_failed_node(
                BarrierApp(iters=2), config, "failover", system, 1,
                system.nodes[1].hooks.log, seals,
            )
            ref = weakref.ref(replay)
            del replay
            assert ref() is None
        finally:
            gc.enable()
