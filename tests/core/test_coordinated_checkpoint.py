"""Tests for coordinated (barrier-aligned) checkpointing.

The paper notes its logging protocol "is applicable to coordinated
checkpointing as well"; here checkpoints are triggered at barrier
episodes, which are consistent global cuts under HLRC (all diffs are
acknowledged before check-in).
"""

import pytest

from repro.core import Checkpointer, make_hooks_factory, run_recovery_experiment
from repro.dsm import DsmSystem
from repro.errors import CheckpointError
from tests.core.conftest import BarrierApp, LockApp


def run_with(app, config, every, on):
    system = DsmSystem(app, config, make_hooks_factory("ccl"))
    ckpts = {}
    for node in system.nodes:
        ckpts[node.id] = Checkpointer(every, on=on)
        node.checkpointer = ckpts[node.id]
    system.run()
    return ckpts


def test_trigger_validation():
    with pytest.raises(CheckpointError):
        Checkpointer(2, on="phases-of-the-moon")


def test_barrier_checkpoints_align_across_nodes(small_cluster):
    """Coordinated mode: every node checkpoints at the same barrier
    episodes, even when their seal counts diverge (lock programs)."""
    ckpts = run_with(LockApp(iters=2), small_cluster, every=1, on="barriers")
    counts = {i: len(c.metas) for i, c in ckpts.items()}
    assert len(set(counts.values())) == 1  # same number everywhere
    assert all(n > 0 for n in counts.values())


def test_seal_checkpoints_diverge_on_lock_programs(small_cluster):
    """Independent mode on a lock program: nodes checkpoint at their own
    pace (different ranks hold different numbers of sealed intervals)."""
    ckpts = run_with(LockApp(iters=3), small_cluster, every=3, on="seals")
    # manager nodes seal more intervals than others -> counts vary
    counts = {i: len(c.metas) for i, c in ckpts.items()}
    assert all(n >= 1 for n in counts.values())


def test_barrier_mode_takes_nothing_without_barriers(small_cluster):
    ckpt = Checkpointer(1, on="barriers")
    # maybe_take (seal trigger) must be a no-op in barrier mode
    class FakeNode:
        seal_count = 4

    consumed = list(ckpt.maybe_take(FakeNode()))
    assert consumed == [] and not ckpt.metas


@pytest.mark.parametrize("mode", ["seals", "barriers"])
def test_recovery_from_coordinated_checkpoint_is_exact(small_cluster, mode):
    res = run_recovery_experiment(
        BarrierApp(iters=6, flops=1e6, imbalance=2.0),
        small_cluster,
        "ccl",
        failed_nodes=(1,),
        checkpoint_every=3,
        checkpoint_mode=mode,
    )
    assert res.ok, (mode, res.victims[0].mismatches)


def test_coordinated_checkpoint_shortens_recovery(small_cluster):
    app = lambda: BarrierApp(iters=6, flops=1e6, imbalance=2.0)  # noqa: E731
    without = run_recovery_experiment(app(), small_cluster, "ccl", failed_nodes=(1,))
    with_ck = run_recovery_experiment(
        app(), small_cluster, "ccl", failed_nodes=(1,),
        checkpoint_every=4, checkpoint_mode="barriers",
    )
    assert without.ok and with_ck.ok
    assert with_ck.recovery_time < without.recovery_time
