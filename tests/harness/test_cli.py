"""Tests for the ``python -m repro`` command-line interface."""

import json
from pathlib import Path

from repro.dsm.system import DsmSystem
from repro.harness import cli, experiments
from repro.harness.cli import main

RESULTS = Path(__file__).resolve().parents[2] / "benchmark_results"


def _artefact(name):
    return (RESULTS / f"{name}.txt").read_text()


def test_table1_prints(monkeypatch, capsys):
    """Table 1 documents the paper's datasets: it simulates nothing."""
    def no_system(*args, **kwargs):
        raise AssertionError("Table 1 built a DsmSystem")

    monkeypatch.setattr(DsmSystem, "__init__", no_system)
    assert main(["experiments", "table1"]) == 0
    assert capsys.readouterr().out == _artefact("table1")


def test_table2_single_app(capsys):
    assert main(["experiments", "table2a"]) == 0
    assert capsys.readouterr().out == _artefact("table2a_fft3d")


def test_fig5_runs_recovery(monkeypatch, capsys):
    task = experiments.recovery_comparison_task
    monkeypatch.setattr(experiments, "recovery_comparison_task",
                        lambda spec: task(dict(spec, scale="test")))
    assert main(["experiments", "fig5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("Figure 5") and out.count("Our Recovery") == 4


def test_rows_print_in_the_order_given(capsys):
    assert main(["experiments", "table2a", "table1"]) == 0
    expected = _artefact("table2a_fft3d") + "\n" + _artefact("table1")
    assert capsys.readouterr().out == expected


def test_quiet_drops_progress_but_keeps_results(tmp_path, capsys):
    assert main(
        ["breakdown", "--apps", "sor", "--scale", "test", "--nodes", "4",
         "--protocol", "ccl", "--runs-dir", str(tmp_path), "--quiet"]
    ) == 0
    out = capsys.readouterr().out
    assert "Execution breakdown" in out
    assert "run bundle" not in out  # progress lines suppressed
    assert len(list(tmp_path.iterdir())) == 1


def test_json_mode_emits_one_document(tmp_path, capsys):
    assert main(
        ["critical-path", "--apps", "sor", "--scale", "test", "--nodes", "4",
         "--protocol", "ccl", "--runs-dir", str(tmp_path), "--json"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "critical_path" in doc and "output" in doc
    (label, payload), = doc["critical_path"].items()
    assert label.startswith("sor/ccl")
    assert 0.0 <= payload["overlap_fraction"] <= 1.0


def test_timeline_writes_valid_chrome_trace(tmp_path, capsys):
    out_file = tmp_path / "timeline.json"
    assert main(
        ["timeline", "--apps", "sor", "--scale", "test", "--nodes", "4",
         "--runs-dir", str(tmp_path / "runs"), "--out", str(out_file)]
    ) == 0
    assert "schema check: ok" in capsys.readouterr().out
    doc = json.loads(out_file.read_text())
    assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]
    # the bundle also captured the trace for later analysis
    bundles = list((tmp_path / "runs").iterdir())
    assert len(bundles) == 1
    assert (bundles[0] / "trace.jsonl").exists()


def test_compare_round_trips_bundles(tmp_path, capsys):
    for _ in range(2):
        assert main(
            ["breakdown", "--apps", "sor", "--scale", "test", "--nodes", "4",
             "--protocol", "ccl", "--runs-dir", str(tmp_path), "--quiet"]
        ) == 0
    a, b = sorted(p.name for p in tmp_path.iterdir())
    capsys.readouterr()
    assert main(
        ["explain", str(tmp_path / a), str(tmp_path / b)]
    ) == 0
    out = capsys.readouterr().out
    assert "explain:" in out
    # identical deterministic runs: every shared metric matches
    assert "no differences" in out


def test_compare_requires_two_bundles(capsys):
    assert main(["explain"]) == 2
    assert main(["explain", "a"]) == 2
    assert main(["compare", "a", "b"]) == 2  # explain is the one run diff


def test_bad_command_rejected(capsys):
    assert main(["frobnicate"]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("repro: ") and "'frobnicate'" in line


def _fake_suite(apps, repeat):
    return {"schema": 1, "kernels": {}, "apps_wall_s": {a: 0.0 for a in apps}}


def test_bare_perf_prints_its_report_and_writes_nothing(monkeypatch, tmp_path,
                                                        capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "run_perf_suite", _fake_suite)
    assert main(["perf", "--apps", "sor"]) == 0
    assert json.loads(capsys.readouterr().out)["apps_wall_s"] == {"sor": 0.0}
    assert list(tmp_path.iterdir()) == []


def test_perf_json_carries_the_report_once(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "run_perf_suite", _fake_suite)
    assert main(["perf", "--apps", "sor", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["output"] == []
    assert doc["perf"]["apps_wall_s"] == {"sor": 0.0}


def test_perf_writes_the_files_its_flags_name(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "run_perf_suite", _fake_suite)
    out, history = tmp_path / "perf.json", tmp_path / "history.jsonl"
    assert main(["perf", "--out", str(out), "--history", str(history)]) == 0
    assert json.loads(out.read_text())["schema"] == 1
    (entry,) = history.read_text().splitlines()
    assert json.loads(entry)["apps_wall_s"]["water"] == 0.0
