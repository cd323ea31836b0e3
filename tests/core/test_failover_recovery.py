"""Replay-free failover recovery: bit-exact promotion, no page replay,
diagnosed refusals when the quorum is gone or replication is off.

The contract mirrors the salvage layer's (docs/robustness.md): the
promoted follower's reconstructed home state is bit-exact against the
crash-point probe snapshot, or failover refuses with a diagnosed
``RecoveryError`` -- never silently wrong, and never by replaying page
contents (the breakdown carries no ``page_replay`` component).
"""

import pytest

from repro.apps import make_app
from repro.config import ClusterConfig
from repro.core import make_hooks_factory
from repro.core.failover_recovery import (
    choose_candidate,
    recover_via_failover,
    run_failover_experiment,
)
from repro.core.failure import CrashProbe
from repro.dsm import DsmSystem
from repro.errors import RecoveryError
from repro.harness.scales import app_kwargs

CONFIG = ClusterConfig.ultra5(num_nodes=4)


def _app(name="sor"):
    return make_app(name, **app_kwargs(name, "test"))


@pytest.fixture(scope="module")
def failover_result():
    return run_failover_experiment(
        _app(), CONFIG, replication=2, failed_node=1,
    )


class TestFailoverExperiment:
    def test_recovery_is_bit_exact(self, failover_result):
        assert failover_result.ok, failover_result.mismatches[:3]
        assert failover_result.verified

    def test_breakdown_has_no_page_replay(self, failover_result):
        assert set(failover_result.breakdown) == {
            "detection", "promotion", "meta_replay", "diff_refetch",
        }
        assert "page_replay" not in failover_result.breakdown

    def test_promotion_fences_at_next_epoch(self, failover_result):
        # ring placement at k=2: node 1's only follower is node 2
        assert failover_result.promoted == 2
        assert failover_result.epoch == 1

    def test_timings_are_positive_and_consistent(self, failover_result):
        r = failover_result
        assert r.detection_time > 0
        assert r.recovery_time > 0
        assert r.breakdown["detection"] == pytest.approx(r.detection_time)
        # recovery time excludes detection, like the classic experiments
        assert r.recovery_time == pytest.approx(
            r.breakdown["promotion"] + r.breakdown["meta_replay"]
            + r.breakdown["diff_refetch"]
        )

    def test_replication_1_is_a_diagnosed_refusal(self):
        with pytest.raises(RecoveryError, match="replication >= 2"):
            run_failover_experiment(
                _app(), CONFIG, replication=1, failed_node=1,
            )

    def test_bad_failed_node_is_a_diagnosed_refusal(self):
        with pytest.raises(RecoveryError, match="not a valid rank"):
            run_failover_experiment(
                _app(), CONFIG, replication=2, failed_node=9,
            )


@pytest.fixture(scope="module")
def replicated_phase_a():
    """One probed, replicated (k=2) failure-free run, shared across the
    refusal tests -- none of them mutate group state irrecoverably."""
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
