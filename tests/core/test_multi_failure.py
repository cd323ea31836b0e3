"""Tests for multi-node failure recovery (extension beyond the paper).

CCL's durable own-diff logs are what make this possible: a crashed
peer's memory is lost, but its log can still serve the diffs and
histories other victims need.  Every victim's recovered state is
verified bit-exactly.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import make_app
from repro.config import ClusterConfig
from repro.core import run_recovery_experiment
from repro.errors import RecoveryError
from tests.core.conftest import BarrierApp, LockApp

CFG8 = ClusterConfig.ultra5(num_nodes=8)


class TestMultiFailure:
    @pytest.mark.parametrize("protocol", ["ml", "ccl"])
    @pytest.mark.parametrize("failed", [(0, 1), (2, 5), (1, 3, 6)])
    def test_workload_multi_recovery_bit_exact(self, protocol, failed):
        res = run_recovery_experiment(
            make_app("fft3d"), CFG8, protocol, failed_nodes=failed
        )
        assert res.ok, (protocol, failed, [v.mismatches for v in res.victims])
        assert [v.victim for v in res.victims] == list(failed)
        assert res.recovery_time == max(v.recovery_time for v in res.victims)

    @pytest.mark.parametrize("protocol", ["ml", "ccl"])
    def test_lock_app_multi_recovery(self, protocol, small_cluster):
        res = run_recovery_experiment(
            LockApp(iters=2), small_cluster, protocol, failed_nodes=(0, 2)
        )
        assert res.ok, [v.mismatches for v in res.victims]

    def test_victims_serve_each_other_under_ccl(self, small_cluster):
        """With two neighbouring victims, each needs the other's diffs."""
        res = run_recovery_experiment(
            BarrierApp(iters=3), small_cluster, "ccl", failed_nodes=(1, 2)
        )
        assert res.ok, [v.mismatches for v in res.victims]

    def test_majority_failure(self):
        """Five of eight nodes die; the three survivors' state plus the
        victims' logs still suffice."""
        res = run_recovery_experiment(
            make_app("sor"), CFG8, "ccl", failed_nodes=(0, 2, 3, 5, 7)
        )
        assert res.ok, [v.mismatches for v in res.victims]

    def test_all_nodes_failing_rejected(self, small_cluster):
        with pytest.raises(RecoveryError):
            run_recovery_experiment(
                BarrierApp(iters=2), small_cluster, "ccl",
                failed_nodes=(0, 1, 2, 3),
            )

    def test_duplicate_failed_nodes_rejected(self, small_cluster):
        with pytest.raises(RecoveryError):
            run_recovery_experiment(
                BarrierApp(iters=2), small_cluster, "ccl", failed_nodes=(1, 1)
            )

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        victims=st.sets(st.integers(0, 3), min_size=1, max_size=3),
        protocol=st.sampled_from(["ml", "ccl"]),
        plan_seed=st.integers(0, 2),
    )
    def test_random_victim_sets_recover_bit_exact(
        self, victims, protocol, plan_seed
    ):
        """Property: any victim subset recovers exactly, both protocols."""
        from repro.config import ClusterConfig as CC

        cfg = CC.ultra5(num_nodes=4, page_size=256)
        app = BarrierApp(iters=2 + plan_seed)
        res = run_recovery_experiment(
            app, cfg, protocol, failed_nodes=tuple(sorted(victims))
        )
        assert res.ok, (victims, protocol, [v.mismatches for v in res.victims])

    def test_concurrent_replay_not_slower_than_worst_single(self, small_cluster):
        """Victims replay concurrently: wall time ~ the slowest victim,
        not the sum."""
        single = run_recovery_experiment(
            BarrierApp(iters=3, flops=1e6), small_cluster, "ccl",
            failed_nodes=(1,),
        )
        multi = run_recovery_experiment(
            BarrierApp(iters=3, flops=1e6), small_cluster, "ccl",
            failed_nodes=(1, 2),
        )
        assert single.ok and multi.ok
        assert multi.recovery_time < 1.7 * single.recovery_time
