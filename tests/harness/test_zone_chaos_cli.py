"""Zone/replication chaos CLI plumbing: flag parsing, the zoned
cluster config, and the ablation history append.

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
from repro.harness.ablations import append_ablation_history
from repro.harness.chaoscmd import _chaos_inputs, _parse_zone_partition
from repro.harness.sweep import SweepPoint


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
    def test_appends_one_compact_entry(self, tmp_path):
        path = tmp_path / "nested" / "history.jsonl"
        points = [
            SweepPoint("water", {}, {"oh_r2_pct": 4.4, "rec_r2_ms": 1.3}),
            SweepPoint("mg", {}, {"oh_r2_pct": 6.5, "rec_r2_ms": 1.2}),
        ]
        entry = append_ablation_history("replication", points, str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        parsed = json.loads(lines[0])
        assert parsed == json.loads(json.dumps(entry))
        assert parsed["kind"] == "ablation"
        assert parsed["which"] == "replication"
        assert parsed["points"]["water"]["oh_r2_pct"] == 4.4
        assert parsed["git_rev"]

    def test_entries_accumulate(self, tmp_path):
        path = tmp_path / "history.jsonl"
        points = [SweepPoint("x", {}, {"m": 1.0})]
        append_ablation_history("replication", points, str(path))
        append_ablation_history("adaptive", points, str(path))
        kinds = [
            json.loads(line)["which"]
            for line in path.read_text().splitlines()
        ]
        assert kinds == ["replication", "adaptive"]

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
        with open(tmp_path / "history.jsonl", "w") as fh:
            fh.write(json.dumps(perf_entry) + "\n")
        append_ablation_history(
            "replication", [SweepPoint("x", {}, {"m": 1.0})],
            str(tmp_path / "history.jsonl"),
        )
        kernels, sim = load_baseline(str(tmp_path / "history.jsonl"))
        assert kernels["kernels_ns_per_op"] == {"k": 10.0}
        assert sim["sim_events_per_sec"] == 1e6


class TestReplicationAblationRegistry:
    def test_replication_sweep_is_registered(self):
        from repro.config import ClusterConfig
        from repro.harness.ablations import ABLATIONS

        title, variants_fn, measure = ABLATIONS["replication"]
        assert "replication" in title
        variants = variants_fn(ClusterConfig.ultra5(num_nodes=4))
        labels = [label for label, _params in variants]
        assert labels == ["fft3d", "mg", "shallow", "water"]
        assert callable(measure)
