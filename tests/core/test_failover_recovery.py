"""Replay-free failover recovery: bit-exact promotion, no page replay,
diagnosed refusals when the quorum is gone or replication is off.

The contract mirrors the salvage layer's (docs/robustness.md): the
promoted follower's reconstructed home state is bit-exact against the
crash-point probe snapshot, or failover refuses with a diagnosed
``RecoveryError`` -- never silently wrong, and never by replaying page
contents (the breakdown carries no ``page_replay`` component).
"""

import json
from pathlib import Path

import pytest

from repro.apps import make_app
from repro.config import ClusterConfig
from repro.core import make_hooks_factory, run_recovery_experiment
from repro.core.failover_recovery import choose_candidate, recover_via_failover
from repro.core.failure import CrashProbe
from repro.core.stablelog import StableLog
from repro.dsm import DsmSystem
from repro.errors import RecoveryError
from repro.harness.scales import app_kwargs

CONFIG = ClusterConfig.ultra5(num_nodes=4)


def _app(name="sor"):
    return make_app(name, **app_kwargs(name, "test"))


def _failover(app="sor", **kwargs):
    return run_recovery_experiment(_app(app), CONFIG, "failover", **kwargs)


@pytest.fixture(scope="module")
def failover_result():
    return _failover(failed_nodes=(1,), replication=2)


class TestFailoverExperiment:
    def test_recovery_is_bit_exact(self, failover_result):
        assert failover_result.ok, failover_result.victims[0].mismatches[:3]

    def test_breakdown_has_no_page_replay(self, failover_result):
        charged = failover_result.victims[0].stats.time.as_dict()
        assert set(charged) == {
            "detection", "promotion", "meta_replay", "diff_refetch",
        }
        assert "page_replay" not in charged

    def test_promotion_fences_at_next_epoch(self, failover_result):
        # ring placement at k=2: node 1's only follower is node 2
        promotion = failover_result.victims[0].promotion
        assert promotion.promoted == 2
        assert promotion.epoch == 1

    def test_timings_are_positive_and_consistent(self, failover_result):
        (v,) = failover_result.victims
        t = v.stats.time
        assert v.promotion.detection_time > 0
        assert v.recovery_time > 0
        assert t.get("detection") == pytest.approx(v.promotion.detection_time)
        # recovery time excludes detection, like the classic experiments
        assert v.recovery_time == pytest.approx(
            t.get("promotion") + t.get("meta_replay") + t.get("diff_refetch")
        )

    def test_replication_1_replays_as_pinned(self):
        """With one copy there is no replica to promote: the scheme
        table's fallback replays the CCL-format log, exactly as pinned."""
        golden = json.loads(
            Path(__file__).with_name("golden_recovery_contract.json").read_text()
        )["replay/failover/sor"]
        res = _failover(failed_nodes=(1,), replication=1)
        (v,) = res.victims
        assert v.promotion is None
        assert (res.ok, v.at_seal, res.recovery_time) == (
            golden["ok"], golden["at_seal"], golden["recovery_time"]
        )
        assert v.stats.time.as_dict() == golden["time"]
        assert dict(v.stats.counters) == golden["counters"]

    def test_at_time_promotion_is_bit_exact(self, failover_result):
        """An arbitrary-instant crash promotes the mirror as of then."""
        horizon = failover_result.phase_a.total_time
        res = _failover(failed_nodes=(1,), replication=2,
                        at_time=0.6 * horizon)
        (v,) = res.victims
        assert res.ok, v.mismatches[:3]
        assert v.promotion is not None and v.salvage is not None
        assert 1 <= v.at_seal < failover_result.victims[0].at_seal

    def test_promoted_node_serves_its_own_suffix_diffs(self, monkeypatch):
        """An early mg crash leaves suffix diffs the promoted follower
        wrote itself: it reads them from its own log, not over the wire."""
        horizon = _failover(app="mg", failed_nodes=(1,), replication=2).phase_a.total_time
        readers = []
        find = StableLog.find_own_diff

        def spy(log, *args):
            readers.append(log.node_id)
            return find(log, *args)

        monkeypatch.setattr(StableLog, "find_own_diff", spy)
        res = _failover(app="mg", failed_nodes=(1,), replication=2, at_time=0.1 * horizon)
        (v,) = res.victims
        assert res.ok, v.mismatches[:3]
        assert v.promotion.promoted in readers

    def test_bad_failed_node_is_a_diagnosed_refusal(self):
        with pytest.raises(RecoveryError, match="not a valid rank"):
            _failover(failed_nodes=(9,), replication=2)


@pytest.fixture(scope="module")
def replicated_phase_a():
    """One probed, replicated (k=2) failure-free run, shared across the
    refusal tests -- recovery never writes into phase A."""
    system = DsmSystem(
        _app(), CONFIG, make_hooks_factory("failover"), replication=2,
    )
    probe = CrashProbe(1)
    system.add_probe(probe)
    system.run()
    probe.finalize()
    return system, probe


class TestQuorumLoss:
    def test_dead_followers_mean_diagnosed_refusal(self, replicated_phase_a):
        system, _probe = replicated_phase_a
        group = system.replica_groups[1]
        dead = (1, *group.followers)  # victim + its every replica
        with pytest.raises(RecoveryError, match="quorum lost"):
            choose_candidate(system, 1, dead)
        plog = system.nodes[1].hooks.log
        with pytest.raises(RecoveryError, match="failover refused"):
            recover_via_failover(CONFIG, system, 1, plog, stop_at=1,
                                 dead=dead)

    def test_unreplicated_node_has_no_group(self, replicated_phase_a):
        system, _probe = replicated_phase_a
        system_plain = DsmSystem(_app(), CONFIG, make_hooks_factory("ccl"))
        system_plain.run()
        with pytest.raises(RecoveryError, match="no replica group"):
            choose_candidate(system_plain, 1, (1,))

    def test_refusal_names_the_classic_fallback(self, replicated_phase_a):
        system, _probe = replicated_phase_a
        group = system.replica_groups[1]
        with pytest.raises(RecoveryError, match="classic replay"):
            choose_candidate(system, 1, (1, *group.followers))
