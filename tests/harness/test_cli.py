"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.harness.cli import main


def test_table1_prints(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "3D-FFT" in out and "Water" in out


def test_table2_single_app(tmp_path, capsys):
    assert main(
        ["table2", "--apps", "sor", "--scale", "test", "--nodes", "4",
         "--runs-dir", str(tmp_path)]
    ) == 0
    out = capsys.readouterr().out
    assert "Table 2" in out and "CCL" in out
    # the run wrote a comparable artifact bundle
    bundles = list(tmp_path.iterdir())
    assert len(bundles) == 1
    manifest = json.loads((bundles[0] / "manifest.json").read_text())
    assert manifest["command"] == "table2"
    assert {r["protocol"] for r in manifest["results"]} == {"none", "ml", "ccl"}


def test_fig4_with_csv(tmp_path, capsys):
    prefix = str(tmp_path / "out")
    code = main(
        ["fig4", "--apps", "sor", "--scale", "test", "--nodes", "4",
         "--csv", prefix, "--no-artifacts"]
    )
    assert code == 0
    assert "Figure 4" in capsys.readouterr().out
    assert (tmp_path / "out_fig4.csv").exists()


def test_fig5_runs_recovery(capsys):
    assert main(
        ["fig5", "--apps", "sor", "--scale", "test", "--nodes", "4",
         "--no-artifacts"]
    ) == 0
    assert "Figure 5" in capsys.readouterr().out


def test_quiet_drops_progress_but_keeps_results(tmp_path, capsys):
    assert main(
        ["table2", "--apps", "sor", "--scale", "test", "--nodes", "4",
         "--runs-dir", str(tmp_path), "--quiet"]
    ) == 0
    out = capsys.readouterr().out
    assert "Table 2" in out
    assert "run bundle" not in out  # progress lines suppressed


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
            ["table2", "--apps", "sor", "--scale", "test", "--nodes", "4",
             "--runs-dir", str(tmp_path), "--quiet"]
        ) == 0
    a, b = sorted(p.name for p in tmp_path.iterdir())
    capsys.readouterr()
    assert main(
        ["explain", str(tmp_path / a), str(tmp_path / b), "--no-artifacts"]
    ) == 0
    out = capsys.readouterr().out
    assert "explain:" in out
    # identical deterministic runs: every shared metric matches
    assert "no differences" in out


def test_compare_requires_two_bundles(capsys):
    assert main(["explain", "--no-artifacts"]) == 2
    with pytest.raises(SystemExit) as exc:  # explain is the one run diff
        main(["compare", "a", "b"])
    assert exc.value.code == 2


def test_bad_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
