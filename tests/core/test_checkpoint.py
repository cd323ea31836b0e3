"""Tests for checkpointing and checkpoint-based recovery."""

import pytest

from repro import ClusterConfig, make_app
from repro.core import Checkpointer, make_hooks_factory, run_recovery_experiment
from repro.dsm import DsmSystem
from repro.errors import CheckpointError
from repro.harness.scales import app_kwargs
from tests.core.conftest import BarrierApp


def run_with_checkpoints(app, config, protocol="ccl", every=2):
    system = DsmSystem(app, config, make_hooks_factory(protocol))
    ckpts = {}
    for node in system.nodes:
        ckpts[node.id] = Checkpointer(every)
        node.checkpointer = ckpts[node.id]
    result = system.run()
    return result, ckpts


class TestCheckpointer:
    def test_period_validation(self):
        with pytest.raises(CheckpointError):
            Checkpointer(0)

    def test_first_full_then_incremental(self, small_cluster):
        _result, ckpts = run_with_checkpoints(
            BarrierApp(iters=4), small_cluster, every=2
        )
        metas = ckpts[1].metas
        assert len(metas) >= 2
        assert metas[0].full and not metas[1].full
        # incremental checkpoints only write modified pages
        assert metas[1].nbytes < metas[0].nbytes
        assert metas[1].pages_written < metas[0].pages_written

    def test_checkpoints_taken_at_period(self, small_cluster):
        _result, ckpts = run_with_checkpoints(
            BarrierApp(iters=4), small_cluster, every=2
        )
        seals = [m.seal for m in ckpts[0].metas]
        assert seals == [2, 4, 6, 8]

    def test_checkpoint_time_charged(self, small_cluster):
        result, _ckpts = run_with_checkpoints(
            BarrierApp(iters=4), small_cluster, every=2
        )
        agg = result.aggregate
        assert agg.counters["checkpoints"] > 0
        assert agg.time.get("checkpoint") > 0

    def test_latest_before(self, small_cluster):
        _result, ckpts = run_with_checkpoints(
            BarrierApp(iters=4), small_cluster, every=2
        )
        ck = ckpts[1]
        assert ck.latest_before(1) is None
        assert ck.latest_before(2).seal == 2
        assert ck.latest_before(5).seal == 4
        assert ck.latest_before(99).seal == max(m.seal for m in ck.metas)


class TestCheckpointRecovery:
    # the real apps crash at a seal that is also a checkpoint seal, with
    # home updates arriving during the checkpoint's disk write: the
    # crash probe must not see them (the log tags them next-interval)
    @pytest.mark.parametrize("app_name, protocol, victim", [
        pytest.param(None, "ml", 1, id="ml"),
        pytest.param(None, "ccl", 1, id="ccl"),
        ("sor", "ccl", 0),
        ("water", "ml", 0),
        ("shallow", "ml", 2),
    ])
    def test_recovery_from_checkpoint_is_exact(
        self, small_cluster, app_name, protocol, victim
    ):
        if app_name is None:
            app, config = BarrierApp(iters=4, flops=1e6, imbalance=2.0), small_cluster
        else:
            app = make_app(app_name, **app_kwargs(app_name, "test"))
            config = ClusterConfig.ultra5(num_nodes=4)
        res = run_recovery_experiment(
            app, config, protocol, failed_nodes=(victim,), checkpoint_every=2
        )
        assert res.ok, res.victims[0].mismatches

    def test_checkpoint_shortens_recovery(self, small_cluster):
        app = lambda: BarrierApp(iters=6, flops=1e6, imbalance=2.0)  # noqa: E731
        without = run_recovery_experiment(
            app(), small_cluster, "ccl", failed_nodes=(1,)
        )
        with_ck = run_recovery_experiment(
            app(), small_cluster, "ccl", failed_nodes=(1,), checkpoint_every=4
        )
        assert without.ok and with_ck.ok
        assert with_ck.recovery_time < without.recovery_time

    def test_checkpoint_at_crash_seal_not_used(self, small_cluster):
        """The crash happens *before* the next checkpoint; a checkpoint
        coinciding with the crash seal must not be restored from."""
        res = run_recovery_experiment(
            BarrierApp(iters=4, flops=1e6, imbalance=2.0),
            small_cluster,
            "ccl",
            failed_nodes=(1,),
            at_seal=4,
            checkpoint_every=4,
        )
        assert res.ok, res.victims[0].mismatches
        # replay did real work (it could not just restore seal-4 state)
        assert res.recovery_time > 0
