"""Integration tests: each workload runs and verifies under every protocol."""

import numpy as np
import pytest

from repro.apps import APP_REGISTRY, PAPER_APPS, gather_global, make_app
from repro.config import ClusterConfig
from repro.core import make_hooks_factory
from repro.dsm import DsmSystem
from repro.errors import ApplicationError

CFG = ClusterConfig.ultra5(num_nodes=8)
ALL_APPS = list(PAPER_APPS) + ["sor"]


def run(app, protocol="none", config=CFG):
    system = DsmSystem(app, config, make_hooks_factory(protocol))
    result = system.run()
    return result, system


class TestRegistry:
    def test_paper_apps_registered(self):
        for name in PAPER_APPS:
            assert name in APP_REGISTRY

    def test_unknown_app_rejected(self):
        with pytest.raises(ApplicationError):
            make_app("nonexistent")

    def test_paper_scale_changes_dataset(self):
        small = make_app("fft3d")
        big = make_app("fft3d", paper_scale=True)
        assert big.n > small.n and big.iters > small.iters

    def test_characteristics_table1_fields(self):
        for name, expected_sync in [
            ("fft3d", "barriers"),
            ("mg", "barriers"),
            ("shallow", "barriers"),
            ("water", "locks and barriers"),
        ]:
            c = make_app(name).characteristics()
            assert c["synchronization"] == expected_sync
            assert "iterations" in c["data_set"]


class TestCorrectnessUnderProtocols:
    @pytest.mark.parametrize("name", ALL_APPS)
    @pytest.mark.parametrize("protocol", ["none", "ml", "ccl"])
    def test_app_verifies(self, name, protocol):
        app = make_app(name)
        _result, system = run(app, protocol)
        assert app.verify(system), f"{name} diverged under {protocol}"

    @pytest.mark.parametrize("name", ALL_APPS)
    def test_runs_are_deterministic(self, name):
        r1, _ = run(make_app(name))
        r2, _ = run(make_app(name))
        assert r1.total_time == r2.total_time
        assert r1.network_bytes == r2.network_bytes


class TestProtocolBehaviour:
    def test_fft_transpose_generates_remote_faults(self):
        result, _ = run(make_app("fft3d"))
        agg = result.aggregate
        assert agg.counters["page_faults"] > 0
        assert agg.counters.get("diffs_created", 0) > 0

    def test_water_uses_locks(self):
        result, _ = run(make_app("water"))
        agg = result.aggregate
        assert agg.counters["lock_acquires"] > 0
        assert agg.counters["barriers"] > 0

    def test_barrier_apps_use_no_locks(self):
        for name in ("fft3d", "mg", "shallow", "sor"):
            result, _ = run(make_app(name))
            assert result.aggregate.counters.get("lock_acquires", 0) == 0, name

    def test_home_alignment_eliminates_diff_traffic(self):
        """Writer-aligned homes: SOR's partition writes are home writes,
        so no diffs ship at all (cf. the A4 ablation).  Needs n=128 so
        each rank's row block is page-aligned; smaller grids false-share
        partition-boundary pages."""
        app = make_app("sor", n=128, iters=4, home_policy="aligned")
        result, system = run(app)
        assert app.verify(system)
        assert result.aggregate.counters.get("diffs_created", 0) == 0

    def test_barrier_prunes_interval_records(self):
        """After barriers, covered interval records are garbage-collected."""
        result, system = run(make_app("sor"))
        agg = result.aggregate
        assert agg.counters.get("records_pruned", 0) > 0
        # tables end (nearly) empty: only the final interval can linger
        for node in system.nodes:
            assert len(node.table) <= 2 * len(system.nodes)

    def test_scaled_datasets_run_quickly(self):
        import time

        t0 = time.time()
        for name in ALL_APPS:
            run(make_app(name))
        assert time.time() - t0 < 30


class TestSmallerClusters:
    @pytest.mark.parametrize("name", ALL_APPS)
    def test_apps_verify_on_4_nodes(self, name):
        cfg = ClusterConfig.ultra5(num_nodes=4)
        app = make_app(name)
        _result, system = run(app, config=cfg)
        assert app.verify(system), name

    @pytest.mark.parametrize("name", ["mg", "water", "sor"])
    def test_apps_verify_on_2_nodes(self, name):
        cfg = ClusterConfig.ultra5(num_nodes=2)
        app = make_app(name)
        _result, system = run(app, config=cfg)
        assert app.verify(system), name


class TestGatherGlobal:
    def test_gather_reassembles_partitioned_variable(self):
        app = make_app("sor")
        result, system = run(app)
        got = gather_global(system, "grid")
        assert got.shape == (app.n, app.n)
        assert np.all(got[0] == 1.0)
