"""Adaptive hybrid logging (CCL <-> ML): switching, dispatch, recovery.

The contract under test:

* switch points are deterministic -- same app, same config, same
  budget, same schedule -- and the schedule is pinned as a golden;
* every adaptive log is mixed-mode (ML interval 0, CCL afterwards
  under the default unbounded budget), round-trips losslessly through
  the framed segment codec, and salvages like any other log;
* mixed-mode replay reconstructs the crashed node bit-exactly, with
  each logged interval segment dispatched to the engine whose mode
  logged it;
* the protocol registry rejects unknown names and budget misuse
  up front (the satellite bugfixes).
"""

from types import SimpleNamespace

import pytest

from repro.core import (
    AdaptiveLogging,
    CrashProbe,
    ModeSwitchLogRecord,
    ReplayNode,
    make_hooks,
    make_hooks_factory,
    replay_failed_node,
    run_recovery_experiment,
)
from repro.core.ccl_recovery import CclEngine
from repro.core.chaos import run_chaos_run
from repro.core.logformat import decode_segment, encode_record, encode_segment
from repro.core.logging_base import SCHEMES
from repro.core.ml_recovery import MlEngine
from repro.core.recovery import plan_victim
from repro.dsm import DsmSystem
from repro.errors import ConfigError, RecoveryError
from repro.obs import MetricsRegistry
from tests.core.conftest import BarrierApp, LockApp


def switch_schedule(node):
    return [
        (r.interval, r.prev_mode, r.mode)
        for r in node.hooks.log.all_records
        if isinstance(r, ModeSwitchLogRecord)
    ]


def run_adaptive(config, budget=None, app=None):
    system = DsmSystem(
        app or BarrierApp(iters=3), config,
        make_hooks_factory("adaptive", recovery_budget=budget),
        protocol_name="adaptive",
    )
    result = system.run()
    return result, system


class TestSwitchDeterminism:
    def test_same_run_same_switch_points(self, small_cluster):
        _r1, s1 = run_adaptive(small_cluster, budget=1e-6)
        _r2, s2 = run_adaptive(small_cluster, budget=1e-6)
        assert [switch_schedule(n) for n in s1.nodes] == [
            switch_schedule(n) for n in s2.nodes
        ]

    def test_golden_schedule_unbounded_budget(self, small_cluster):
        """Pinned: ML for interval 0, CCL from the first seal on."""
        _res, system = run_adaptive(small_cluster)
        for node in system.nodes:
            assert switch_schedule(node) == [
                (0, "", "ml"), (1, "ml", "ccl"),
            ], node.id

    def test_golden_schedule_tight_budget(self, small_cluster):
        """Pinned: a hopeless budget forces the ML fallback at the
        first priced seal, and the latch holds it there."""
        _res, system = run_adaptive(small_cluster, budget=1e-6)
        for node in system.nodes:
            assert switch_schedule(node) == [
                (0, "", "ml"), (1, "ml", "ccl"), (2, "ccl", "ml"),
            ], node.id

    def test_interval_tags_stay_monotone(self, small_cluster):
        """Mode-switch markers must not break the log's interval order
        (salvage's first-lost computation depends on it)."""
        _res, system = run_adaptive(small_cluster, budget=1e-6)
        for node in system.nodes:
            tags = [r.interval for r in node.hooks.log.all_records]
            assert tags == sorted(tags)


class TestMixedModeLog:
    def test_mixed_log_roundtrips_through_segment_codec(self, small_cluster):
        _res, system = run_adaptive(small_cluster)
        records = system.nodes[0].hooks.log.all_records
        kinds = {type(r) for r in records}
        assert ModeSwitchLogRecord in kinds and len(kinds) >= 3
        buf = encode_segment(7, records)
        back, consumed, error = decode_segment(buf)
        assert error is None and consumed == len(buf)
        assert [encode_record(r) for r in back] == [
            encode_record(r) for r in records
        ]

    def test_torn_mixed_log_salvages_prefix(self, small_cluster):
        _res, system = run_adaptive(small_cluster)
        records = system.nodes[0].hooks.log.all_records
        buf = encode_segment(0, records)
        back, _consumed, error = decode_segment(buf[:-9])
        assert error is not None
        assert len(back) == len(records) - 1
        assert isinstance(back[0], ModeSwitchLogRecord)

    def test_mode_bytes_split_and_switch_count_in_metrics(self, small_cluster):
        result, _system = run_adaptive(small_cluster)
        reg = MetricsRegistry.from_run(result)
        nodes = small_cluster.num_nodes
        assert reg.get("repro_log_mode_switches") == nodes
        assert reg.get("repro_log_mode_bytes", mode="ml") > 0
        assert reg.get("repro_log_mode_bytes", mode="ccl") > 0


class TestMixedModeRecovery:
    @pytest.mark.parametrize("failed_node", [0, 1, 3])
    def test_barrier_app_recovers_exact_state(self, small_cluster, failed_node):
        res = run_recovery_experiment(
            BarrierApp(iters=3), small_cluster, "adaptive", (failed_node,)
        )
        assert res.ok, res.victims[0].mismatches
        assert res.recovery_time > 0

    def test_lock_app_recovers_exact_state(self, small_cluster):
        res = run_recovery_experiment(
            LockApp(iters=2), small_cluster, "adaptive", failed_nodes=(2,)
        )
        assert res.ok, res.victims[0].mismatches

    def test_tight_budget_fallback_recovers_exact_state(self, small_cluster):
        res = run_recovery_experiment(
            BarrierApp(iters=3), small_cluster, "adaptive", failed_nodes=(1,),
            recovery_budget=1e-6,
        )
        assert res.ok, res.victims[0].mismatches

    def test_chaos_smoke(self, small_cluster):
        cases = run_chaos_run(
            lambda: BarrierApp(iters=2), small_cluster, "adaptive", seed=3,
            crash_points=2,
        ).cases
        assert cases and all(c.ok for c in cases), [
            c.detail for c in cases if not c.ok
        ]


class TestRegistry:
    def test_factory_rejects_unknown_name_without_construction(self):
        with pytest.raises(ConfigError, match="unknown logging protocol"):
            make_hooks_factory("paxos")

    def test_budget_rejected_for_static_protocols(self):
        for name in ("none", "ml", "ccl"):
            with pytest.raises(ConfigError, match="recovery_budget"):
                make_hooks_factory(name, recovery_budget=0.5)

    def test_make_hooks_adaptive(self):
        hooks = make_hooks("adaptive", recovery_budget=0.25)
        assert isinstance(hooks, AdaptiveLogging)
        assert hooks.recovery_budget == 0.25
        assert hooks.policy.name == "ml" and hooks.policy.sync_flush


#: The engine mode of each replayed interval (``k`` of them), by scheme:
#: a contents policy replays as ML, a skeleton as CCL, and adaptive's
#: switch markers say ML for interval 0 and CCL after (unbounded budget).
REPLAY_MODES = {
    "none": None,
    "ml": lambda k: ["ml"] * k,
    "ccl": lambda k: ["ccl"] * k,
    "adaptive": lambda k: ["ml"] + ["ccl"] * (k - 1),
    "failover": lambda k: ["ccl"] * k,
}


class TestReplayDispatch:
    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_engine_follows_the_log(self, small_cluster, name):
        """Each recoverable row replays with the engine its policy implies,
        adaptive's markers switch it per interval, and ``none`` is refused."""
        assert sorted(REPLAY_MODES) == sorted(SCHEMES)
        if REPLAY_MODES[name] is None:
            assert SCHEMES[name].replay is None
            with pytest.raises(RecoveryError, match="no replay engine"):
                run_recovery_experiment(BarrierApp(), small_cluster, name)
            return
        system = DsmSystem(BarrierApp(), small_cluster, make_hooks_factory(name))
        probe = CrashProbe(1)
        system.add_probe(probe)
        system.run()
        probe.finalize()
        plan = plan_victim(system, probe)
        replay, _seconds = replay_failed_node(
            system.app, small_cluster, name, system, 1, plan.plog, plan.stop_at
        )
        k = replay.interval_index
        modes = [replay.mode_at(i) for i in range(k)]
        assert k >= 3 and modes == REPLAY_MODES[name](k)
        assert type(replay.engine) is {"ml": MlEngine, "ccl": CclEngine}[modes[-1]]
        # the marker -> mode map: the last switch at or below an interval,
        # else the scheme's own mode
        stub = SimpleNamespace(mode=SCHEMES[name].replay, switch_points=[])
        assert ReplayNode.mode_at(stub, 0) == SCHEMES[name].replay
        stub.switch_points = [(0, "ml"), (1, "ccl"), (4, "ml")]
        assert [ReplayNode.mode_at(stub, i) for i in range(6)] == [
            "ml", "ccl", "ccl", "ccl", "ml", "ml"]
        assert ReplayNode.mode_at(stub, 99) == "ml"
