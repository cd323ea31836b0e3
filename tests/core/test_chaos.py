"""Chaos-suite, failpoint-sweep, and fault-plan byte-identity tests."""

import pytest

from repro.apps import make_app
from repro.core import make_hooks_factory, run_recovery_experiment
from repro.core.chaos import ChaosFaults, run_chaos_run, run_chaos_suite
from repro.core.detector import FailureDetector
from repro.dsm import DsmSystem
from repro.errors import RecoveryError
from repro.sim import DiskFaultPlan, FaultPlan
from tests.core.conftest import BarrierApp, LockApp


class TestNonePlanByteIdentity:
    """``FaultPlan.none()`` must leave every statistic byte-identical.

    This pins the guarantee the whole Table 2 / Fig 4 / Fig 5 pipeline
    rests on: attaching an inert plan takes the exact fault-free network
    code path, so paper numbers are unaffected by the chaos machinery.
    """

    def fingerprint(self, small_cluster, plan):
        system = DsmSystem(
            make_app("sor", n=32, iters=3), small_cluster,
            make_hooks_factory("ccl"), fault_plan=plan,
        )
        r = system.run()
        return (
            r.total_time,
            r.network_bytes,
            r.network_msgs,
            r.bytes_by_kind,
            r.log_summaries,
            [n.vt for n in system.nodes],
            [bytes(n.memory.snapshot()) for n in system.nodes],
        )

    def test_stats_identical_with_and_without_plan(self, small_cluster):
        bare = self.fingerprint(small_cluster, None)
        inert = self.fingerprint(small_cluster, FaultPlan.none())
        assert bare == inert

    def test_inert_plan_uses_bare_network(self, small_cluster):
        system = DsmSystem(
            BarrierApp(iters=1), small_cluster, make_hooks_factory("ccl"),
            fault_plan=FaultPlan.none(),
        )
        assert system.transport is system.network


class TestFailpointSweep:
    """Crash at every (node, seal) pair: recovery stays bit-exact."""

    @pytest.mark.parametrize("protocol", ["ml", "ccl"])
    def test_every_node_at_every_seal(self, small_cluster, protocol):
        probe_run = DsmSystem(
            BarrierApp(iters=2), small_cluster, make_hooks_factory(protocol)
        )
        probe_run.run()
        seal_counts = [n.seal_count for n in probe_run.nodes]
        assert min(seal_counts) >= 4
        for node, seals in enumerate(seal_counts):
            for seal in range(1, seals + 1):
                res = run_recovery_experiment(
                    BarrierApp(iters=2), small_cluster, protocol,
                    failed_nodes=(node,), at_seal=seal,
                )
                assert res.ok, (protocol, node, seal, res.victims[0].mismatches[:3])

    def test_bad_failed_node_fails_fast(self, small_cluster):
        with pytest.raises(RecoveryError, match="not a valid rank"):
            run_recovery_experiment(
                BarrierApp(iters=2), small_cluster, "ccl", failed_nodes=(7,)
            )


class TestChaosSuite:
    def test_small_suite_is_bit_exact(self, small_cluster):
        report = run_chaos_suite(
            {"barrier": lambda: BarrierApp(iters=3),
             "lock": lambda: LockApp(iters=2)},
            small_cluster,
            protocols=("ccl", "ml"),
            seeds=3, crash_points=3, kill_every=3,
        )
        assert report.ok, report.render()
        # the suite must actually have injected faults of every class
        assert report.fault_totals["dropped"] > 0
        assert report.fault_totals["duplicated"] > 0
        assert report.fault_totals["reordered"] > 0
        assert report.transport_totals["retransmits"] > 0
        # and verified at least one non-trivial recovery
        assert any(c.stop_at >= 1 for c in report.cases)
        assert any(c.live_kill for c in report.cases)

    def test_pinned_crash_time_is_reproducible(self, small_cluster):
        first = run_chaos_run(
            lambda: BarrierApp(iters=2), small_cluster, "ccl", seed=11,
            crash_node=1, crash_times=[0.004],
        ).cases
        second = run_chaos_run(
            lambda: BarrierApp(iters=2), small_cluster, "ccl", seed=11,
            crash_node=1, crash_times=[0.004],
        ).cases
        assert [(c.ok, c.stop_at) for c in first] == [
            (c.ok, c.stop_at) for c in second
        ]

    def test_failure_report_carries_repro_command(self, small_cluster):
        cases = run_chaos_run(
            lambda: BarrierApp(iters=2), small_cluster, "ccl", seed=4,
            crash_points=2,
        ).cases
        for c in cases:
            cmd = c.repro_command()
            assert "--seed 4" in cmd and "--crash-time" in cmd


class TestDiskFaultByteIdentity:
    """``DiskFaultPlan.none()`` must be byte-identical to no plan.

    Same pinned guarantee as the network side: an inert disk plan draws
    no randomness and adds no latency, so every paper number survives
    the storage-fault machinery being wired in.
    """

    def fingerprint(self, small_cluster, plan):
        system = DsmSystem(
            make_app("sor", n=32, iters=3), small_cluster,
            make_hooks_factory("ccl"), disk_fault_plan=plan,
        )
        r = system.run()
        return (
            r.total_time,
            r.log_summaries,
            [d["num_writes"] for d in r.disk_stats],
            [bytes(n.memory.snapshot()) for n in system.nodes],
        )

    def test_stats_identical_with_and_without_plan(self, small_cluster):
        bare = self.fingerprint(small_cluster, None)
        inert = self.fingerprint(small_cluster, DiskFaultPlan.none())
        assert bare == inert


class TestChaosDiskFaults:
    """Storage faults under chaos: bit-exact or diagnosed, never silent."""

    def test_hard_write_errors_are_diagnosed_passes(self, small_cluster):
        cases = run_chaos_run(
            lambda: BarrierApp(iters=2), small_cluster, "ml", seed=3,
            crash_points=2, faults=ChaosFaults(disk_write_error=0.95),
        ).cases
        assert cases and all(c.ok for c in cases)
        # at this rate some node exhausts its retries: the run must be
        # reported as a *diagnosed* storage fault, not a silent pass
        assert any(c.detail.startswith("diagnosed:") for c in cases)
        assert any("failed" in c.detail for c in cases)

    def test_mixed_disk_faults_stay_bit_exact_or_diagnosed(self, small_cluster):
        cases = run_chaos_run(
            lambda: BarrierApp(iters=2), small_cluster, "ccl", seed=5,
            crash_points=3,
            faults=ChaosFaults(disk_torn=0.6, disk_write_error=0.2,
                               disk_bitrot=0.3),
        ).cases
        assert cases and all(c.ok for c in cases), [
            (c.crash_time, c.detail) for c in cases if not c.ok
        ]

    def test_suite_with_disk_rates_passes(self, small_cluster):
        report = run_chaos_suite(
            {"barrier": lambda: BarrierApp(iters=2)},
            small_cluster,
            protocols=("ml", "ccl"),
            seeds=2, crash_points=2,
            faults=ChaosFaults(disk_torn=0.4, disk_bitrot=0.1),
        )
        assert report.ok, report.render()

    def test_zero_disk_rates_are_dropped(self, small_cluster):
        """rates of 0.0 must take the plan-free (byte-identical) path."""
        bare = run_chaos_run(
            lambda: BarrierApp(iters=2), small_cluster, "ml", seed=7,
            crash_points=2,
        ).cases
        zeroed = run_chaos_run(
            lambda: BarrierApp(iters=2), small_cluster, "ml", seed=7,
            crash_points=2,
            faults=ChaosFaults(disk_torn=0.0, disk_write_error=0.0,
                               disk_bitrot=0.0),
        ).cases
        assert [(c.ok, c.stop_at, c.crash_time) for c in bare] == [
            (c.ok, c.stop_at, c.crash_time) for c in zeroed
        ]


class TestLiveKillDetection:
    def test_victim_detected_and_survivors_blocked(self, small_cluster):
        """Fault injection + heartbeat detector, end to end.

        The plan kills node 2 mid-run: its processes die and the network
        discards its frames, so its heartbeats stop.  The detector on
        node 0 must suspect it within the miss budget, and the survivors
        must stall (recovery exists for a reason).
        """
        kill_at = 0.004
        plan = FaultPlan.uniform(0, drop=0.05, dup=0.05).kill(2, kill_at)
        system = DsmSystem(
            BarrierApp(iters=6), small_cluster, make_hooks_factory("ccl"),
            fault_plan=plan,
        )
        period = 1e-3
        det = FailureDetector(
            system.sim, system.network, monitor=0,
            period_s=period, misses_allowed=3,
        )
        system.sim.spawn(det.monitor_loop(), name="monitor")
        for i in range(1, small_cluster.num_nodes):
            system.sim.spawn(
                FailureDetector.responder_loop(system.network, i),
                name=f"hb{i}",
            )
        result = system.run()
        assert not result.completed
        assert result.blocked
        assert 2 in det.suspected
        latency = det.suspected[2] - kill_at
        assert 0 < latency < 8 * period
        assert det.on_failure.triggered


class TestZoneChaos:
    """Zone-scoped chaos: whole-domain kills against replicated homes
    (failover and classic replay) and partition ride-out."""

    def _zoned(self, small_cluster):
        return small_cluster.with_zones(2)

    def test_zone_kill_under_failover_is_bit_exact(self, small_cluster):
        config = self._zoned(small_cluster)
        report = run_chaos_run(
            lambda: BarrierApp(iters=3), config, "failover", seed=5,
            crash_points=2, faults=ChaosFaults(replication=2, zone_kill=1),
        )
        cases = report.cases
        assert cases, "zone kill produced no cases"
        assert all(c.ok for c in cases), [c.detail for c in cases if not c.ok]
        # every node of zone 1 was a victim at every probed instant
        victims = {c.crash_node for c in cases}
        assert victims == set(config.nodes_in_zone(1))
        assert report.fault_totals["dead_discards"] > 0

    def test_zone_kill_under_classic_replay_is_bit_exact(self, small_cluster):
        config = self._zoned(small_cluster)
        cases = run_chaos_run(
            lambda: BarrierApp(iters=3), config, "ccl", seed=5,
            crash_points=2, faults=ChaosFaults(replication=2, zone_kill=0),
        ).cases
        assert cases and all(c.ok for c in cases), [
            c.detail for c in cases if not c.ok
        ]
        assert {c.crash_node for c in cases} == set(config.nodes_in_zone(0))

    def test_zone_partition_rides_out_to_completion(self, small_cluster):
        config = self._zoned(small_cluster)
        report = run_chaos_run(
            lambda: BarrierApp(iters=3), config, "ccl", seed=9,
            crash_points=2, faults=ChaosFaults(zone_partition=(0, 1)),
        )
        assert report.ok, [c.detail for c in report.failures]
        assert report.fault_totals["partition_discards"] > 0

    def test_failover_without_replication_is_config_error(self, small_cluster):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="replication >= 2"):
            run_chaos_run(
                lambda: BarrierApp(iters=2), self._zoned(small_cluster),
                "failover", seed=1, faults=ChaosFaults(replication=1),
            )

    def test_unknown_zone_is_config_error(self, small_cluster):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="unknown zone"):
            run_chaos_run(
                lambda: BarrierApp(iters=2), self._zoned(small_cluster),
                "ccl", seed=1, faults=ChaosFaults(zone_kill=7),
            )

    def test_repro_command_carries_zone_flags(self, small_cluster):
        config = self._zoned(small_cluster)
        cases = run_chaos_run(
            lambda: BarrierApp(iters=2), config, "failover", seed=3,
            crash_points=1, faults=ChaosFaults(replication=2, zone_kill=1),
        ).cases
        for c in cases:
            cmd = c.repro_command()
            assert "--replication 2" in cmd
            assert "--zones 2" in cmd
            assert "--zone-kill 1" in cmd
