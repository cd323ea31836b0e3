"""Unit tests for ``benchmarks/check_perf_gate.py`` (schema skip +
failure attribution), without running the actual kernel timings."""

import importlib.util
import json
from pathlib import Path

import pytest

_GATE_PATH = (Path(__file__).resolve().parents[2]
              / "benchmarks" / "check_perf_gate.py")
_spec = importlib.util.spec_from_file_location("check_perf_gate", _GATE_PATH)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def _write_history(tmp_path, entries):
    path = tmp_path / "history.jsonl"
    path.write_text("".join(json.dumps(e) + "\n" for e in entries))
    return str(path)


def test_load_baseline_picks_most_recent_per_metric(tmp_path):
    path = _write_history(tmp_path, [
        {"ts": "t0", "git_rev": "aaa",
         "kernels_ns_per_op": {"apply_diff_dense": 100.0}},
        {"ts": "t1", "git_rev": "bbb", "sim_events_per_sec": 1e6},
        {"ts": "t2", "git_rev": "ccc", "sim_events_per_sec": 2e6},
    ])
    base_k, base_s = gate.load_baseline(path)
    assert base_k["git_rev"] == "aaa"   # only entry with kernel timings
    assert base_s["git_rev"] == "ccc"   # most recent with events/s


def test_load_baseline_skips_unknown_schema_with_warning(tmp_path, capsys):
    """A newer writer's entries are skipped, not a crash (satellite #2)."""
    path = _write_history(tmp_path, [
        {"ts": "t0", "git_rev": "old", "schema": 1, "sim_events_per_sec": 1e6},
        {"ts": "t1", "git_rev": "new", "schema": 99, "sim_events_per_sec": 9e6,
         "kernels_ns_per_op": {"apply_diff_dense": 1.0}},
    ])
    base_k, base_s = gate.load_baseline(path)
    out = capsys.readouterr().out
    assert "WARNING" in out and "unknown schema 99" in out
    assert "rev new" in out
    # the schema-99 entry contributed nothing
    assert base_s["git_rev"] == "old"
    assert base_k == {}


def test_load_baseline_missing_schema_field_means_schema_one(tmp_path, capsys):
    path = _write_history(tmp_path, [
        {"ts": "t0", "git_rev": "pre", "sim_events_per_sec": 5e5},
    ])
    _base_k, base_s = gate.load_baseline(path)
    assert base_s["git_rev"] == "pre"
    assert "WARNING" not in capsys.readouterr().out


def test_load_baseline_all_unreadable_exits(tmp_path):
    path = _write_history(tmp_path, [
        {"ts": "t0", "schema": 99}, {"ts": "t1", "schema": "weird"},
    ])
    with pytest.raises(SystemExit, match="no readable entries"):
        gate.load_baseline(path)


def test_load_baseline_empty_file_exits(tmp_path):
    path = tmp_path / "history.jsonl"
    path.write_text("")
    with pytest.raises(SystemExit, match="empty"):
        gate.load_baseline(str(path))


def test_attribute_failure_ranks_regressed_kernel_first():
    base_k = {"ts": "t0", "git_rev": "aaa",
              "kernels_ns_per_op": {"apply_diff_dense": 100.0,
                                    "create_diff_dense": 200.0}}
    base_s = {"ts": "t0", "git_rev": "aaa", "sim_events_per_sec": 1e6}
    best = {
        "apply_diff_dense": {"ns_per_op": 500.0},
        "create_diff_dense": {"ns_per_op": 205.0},
        "sim_event_throughput": {"events_per_sec": 9.5e5},
    }
    text = gate.attribute_failure(best, base_k, base_s)
    first_rank = next(ln for ln in text.splitlines()
                      if ln.strip().startswith("#1"))
    assert "apply_diff_dense" in first_rank
    assert "sim_events_per_sec" in text


# ----------------------------------------------------------------------
# the long-run headline (`repro perf --target`'s longrun_wall_s)
# ----------------------------------------------------------------------
def _target(wall, nodes=64):
    return {"longrun_app": "sor", "longrun_protocol": "ccl",
            "longrun_nodes": nodes, "longrun_scale": "bench",
            "longrun_wall_s": wall}


_PASS = {name: {"ns_per_op": 1.0} for name in gate.PARITY_GATED_KERNELS}
_PASS["sim_event_throughput"] = {"events_per_sec": 1e6}


def test_longrun_baselines_against_most_recent_entry_that_recorded_it(tmp_path):
    path = _write_history(tmp_path, [
        {"ts": "t0", "git_rev": "aaa", "target": _target(2.5)},
        {"ts": "t1", "git_rev": "bbb", "target": _target(1.5)},
        # a full-suite entry after it records no long run
        {"ts": "t2", "git_rev": "ccc", "sim_events_per_sec": 2e6,
         "kernels_ns_per_op": {"apply_diff_dense": 100.0}},
        {"ts": "t3", "git_rev": "ddd", "schema": 99, "target": _target(0.1)},
    ])
    base_k, base_s, base_l = gate.select_baselines(gate.readable_entries(path))
    assert (base_k["git_rev"], base_s["git_rev"]) == ("ccc", "ccc")
    assert base_l["git_rev"] == "bbb"
    assert base_l["target"]["longrun_wall_s"] == 1.5
    # the two-family loader other tools import is unchanged
    assert gate.load_baseline(path) == (base_k, base_s)


def test_longrun_absent_from_history_is_reported_not_failed(tmp_path):
    path = _write_history(tmp_path, [
        {"ts": "t0", "git_rev": "aaa", "sim_events_per_sec": 1e6}])
    _k, _s, base_l = gate.select_baselines(gate.readable_entries(path))
    assert base_l == {}
    failures, rows = gate.evaluate(_PASS, {}, {}, base_l, 0.10)
    assert failures == []
    assert ("longrun [wall s]", "(absent)", "(not timed)", None, True) in rows


def test_longrun_regression_fails_the_gate_and_improvement_passes():
    base_l = {"ts": "t0", "git_rev": "aaa", "target": _target(1.5)}
    slow = dict(_PASS, **{gate.LONGRUN: {"wall_s": 1.8}})
    failures, rows = gate.evaluate(slow, {}, {}, base_l, 0.10)
    assert failures == ["longrun_wall_s"]
    row = next(r for r in rows if r[0].startswith("longrun"))
    assert row[0] == "longrun sor/ccl x64 [wall s]"
    assert row[1:3] == ("1.50", "1.80") and row[4] is False
    assert row[3] == pytest.approx(0.2)
    for wall in (1.6, 0.9):  # inside tolerance, and faster
        ok = dict(_PASS, **{gate.LONGRUN: {"wall_s": wall}})
        assert gate.evaluate(ok, {}, {}, base_l, 0.10)[0] == []


def test_merge_best_keeps_the_fastest_long_run_across_passes():
    first = dict(_PASS, **{gate.LONGRUN: {"wall_s": 2.0}})
    noisy = dict(_PASS, **{gate.LONGRUN: {"wall_s": 3.1}})
    quiet = dict(_PASS, **{gate.LONGRUN: {"wall_s": 1.6}})
    best = gate.merge_best(None, first)
    best = gate.merge_best(best, noisy)
    assert best[gate.LONGRUN]["wall_s"] == 2.0
    best = gate.merge_best(best, quiet)
    assert best[gate.LONGRUN]["wall_s"] == 1.6


def test_measure_longrun_retimes_the_run_the_baseline_timed(monkeypatch):
    seen = []
    monkeypatch.setattr(
        gate, "time_app_run",
        lambda app, protocol, nodes, scale:
            seen.append((app, protocol, nodes, scale)) or 1.25)
    row = gate.measure_longrun({"target": _target(2.5, nodes=32)})
    assert row == {"wall_s": 1.25}
    assert seen == [("sor", "ccl", 32, "bench")]
