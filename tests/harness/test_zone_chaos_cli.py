"""Zone/replication chaos CLI plumbing: flag parsing, the zoned
cluster config, the perf gate's history reader, and the replication
row of the experiment table.

The full table of fault-model refusals (unknown zones, impossible
replication, failover without replicas) lives in
``tests/harness/test_chaos_repro.py``; here the CLI syntax is checked,
the zone refusals are pinned at the flag-parsing entry point, and a
valid zone config must come out labelled and WAN-charged exactly as
requested.
"""

import json
from types import SimpleNamespace

import pytest

from repro.core.chaos import ChaosFaults
from repro.errors import ConfigError
from repro.harness.chaoscmd import _chaos_inputs, _parse_zone_partition


def _args(**overrides):
    base = dict(
        nodes=8, zones=None, zone_wan=0.0, zone_kill=None,
        zone_partition=None, replication=1, protocols=["ccl"],
        drop=0.08, dup=0.08, delay_rate=0.12, reorder=0.12,
        disk_torn=0.0, disk_write_error=0.0, disk_bitrot=0.0,
    )
    base.update(overrides)
    return SimpleNamespace(**base)


class TestZonePartitionParsing:
    def test_none_passes_through(self):
        assert _parse_zone_partition(None) is None

    def test_pair_parses(self):
        assert _parse_zone_partition("0,1") == (0, 1)

    @pytest.mark.parametrize("bad", ["0", "0,1,2", "a,b", ""])
    def test_malformed_is_diagnosed(self, bad):
        with pytest.raises(ConfigError, match="two zone ids"):
            _parse_zone_partition(bad)


class TestZoneConfigFailFast:
    def test_plain_config_unchanged(self):
        config, faults = _chaos_inputs(_args())
        assert config.zones is None and faults == ChaosFaults()

    def test_zoned_config_labels_round_robin(self):
        config, _ = _chaos_inputs(_args(zones=2, zone_wan=2e-4))
        assert sorted(set(config.zones)) == [0, 1]
        assert config.zone_wan_latency_s == 2e-4

    def test_zone_wan_without_zones_refused(self):
        with pytest.raises(ConfigError, match="needs --zones"):
            _chaos_inputs(_args(zone_wan=1e-4))

    def test_unknown_kill_zone_refused(self):
        with pytest.raises(ConfigError, match="unknown zone 5"):
            _chaos_inputs(_args(zones=2, zone_kill=5))

    def test_failover_with_replication_accepted(self):
        config, faults = _chaos_inputs(
            _args(protocols=["failover"], replication=2, zones=2,
                  zone_partition="0,1")
        )
        assert config.num_nodes == 8
        assert faults == ChaosFaults(replication=2, zone_partition=(0, 1))

    def test_killing_the_only_zone_refused(self):
        with pytest.raises(ConfigError, match="at least one zone"):
            _chaos_inputs(_args(zone_kill=0))


class TestAblationHistoryAppend:
    """History files may still carry ablation entries from older runs."""

    def test_perf_gate_skips_ablation_entries(self, tmp_path):
        """The perf gate baselines each family against the most recent
        entry carrying it; an ablation entry carries none."""
        import sys
        sys.path.insert(0, "benchmarks")
        try:
            from check_perf_gate import load_baseline
        except ImportError:
            pytest.skip("check_perf_gate helpers not importable")
        finally:
            sys.path.pop(0)
        perf_entry = {
            "schema": 1, "git_rev": "abc",
            "kernels_ns_per_op": {"k": 10.0}, "sim_events_per_sec": 1e6,
        }
        ablation_entry = {
            "schema": 1, "kind": "ablation", "which": "replication",
            "git_rev": "abd", "points": {"x": {"m": 1.0}},
        }
        with open(tmp_path / "history.jsonl", "w") as fh:
            fh.write(json.dumps(perf_entry) + "\n")
            fh.write(json.dumps(ablation_entry) + "\n")
        kernels, sim = load_baseline(str(tmp_path / "history.jsonl"))
        assert kernels["kernels_ns_per_op"] == {"k": 10.0}
        assert sim["sim_events_per_sec"] == 1e6


class TestReplicationAblationRegistry:
    def test_replication_sweep_is_registered(self):
        from repro.config import ClusterConfig
        from repro.harness.experiments import EXPERIMENTS

        row = EXPERIMENTS["replication"]
        assert row.id == "X5" and "replication" in row.title
        variants = row.variants(ClusterConfig.ultra5(num_nodes=4))
        labels = [label for label, _params in variants]
        assert labels == ["fft3d", "mg", "shallow", "water"]
        assert callable(row.measure) and row.claims
