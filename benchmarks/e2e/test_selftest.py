"""Self-test: run the benchmark at ``--quick`` scale and validate its shape.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e`` (about 30 s).
Checks the output against the limits the benchmark contract sets and
against BENCHMARK.json, so the two cannot drift apart.
"""

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import layers
import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def bench(*argv):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "quick.json"
    proc = bench("--quick", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(out.read_text()), proc.stdout


def test_spec_matches_the_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    expected = {f"{layer}.{kind}" for layer in layers.LAYERS
                for kind in ("self_s", "share", "calls")}
    expected |= set(workloads.COUNTS)
    expected |= {"sim.time_s", "sim.log_mb", "sim.recovery_s",
                 "run.host_us_per_msg", "run.trace_overhead_ratio"}
    assert {m["name"] for m in SPEC["per_layer"]} == expected
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer")
             for x in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)


def test_quick_run_reports_every_metric(quick):
    document, stdout = quick
    assert {"python", "numpy", "nproc", "git_sha", "seed"} <= set(document["env"])
    assert list(document["workloads"]) == list(workloads.WORKLOADS)
    for name, report in document["workloads"].items():
        assert NAME.fullmatch(name)
        assert report["attempted"] >= 1 and report["failed"] == 0, report["failures"]
        assert len(report["end_to_end"]) <= 16 and len(report["per_layer"]) <= 128
        for metric, m in report["end_to_end"].items():
            assert NAME.fullmatch(metric)
            assert m["unit"] and m["better"] in ("lower", "higher")
            assert 0 <= m["bound"] <= 0.25
            assert m["n"] == len(m["samples"]) >= 1
            assert f"{metric} " in stdout
        assert report["end_to_end"]["fail_ratio"]["median"] == 0
        assert set(report["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
        assert 0 <= report["per_layer"]["other.share"]["value"] < 0.05
    by = document["workloads"]
    assert by["recovery8"]["per_layer"]["recovery.replays"]["value"] == 96
    assert by["recovery8"]["end_to_end"]["sim_recovery_s"]["median"] > 0
    assert by["chaos4"]["per_layer"]["chaos.cases"]["value"] > 0
    assert by["shallow8_obs"]["per_layer"]["obs.spans"]["value"] > 0


@pytest.mark.parametrize("trace", [0, 1])
def test_driver_form_prints_the_contract_line(trace):
    proc = bench("--quick", "--workload", "chaos4", "--seed", "3",
               "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 < line["attempted"]
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(line["metrics"][m["name"]]["value"], (int, float))


def test_a_wrong_digest_counts_as_a_failed_operation():
    sample = {"attempted": 1, "failures": [], "digest": {"sor/ccl": {"total_time": 1.0}}}
    pinned = json.loads(run.expected_path("quick", "sor64_ccl").read_text())
    run.check_digest(sample, pinned, seed=0)
    assert sample["attempted"] == 2 and len(sample["failures"]) == 1
    # a seeded workload away from its pinned seed has no digest to meet
    sample = {"attempted": 1, "failures": [], "digest": {}}
    pinned = json.loads(run.expected_path("quick", "chaos4").read_text())
    run.check_digest(sample, pinned, seed=99)
    assert sample == {"attempted": 1, "failures": [], "digest": {}}


def test_compare_verdicts(quick):
    document, _ = quick
    _lines, tally = compare.compare(document, document, layers=False)
    assert tally["worse"] == 0 and tally["better"] == 0
    slower = copy.deepcopy(document)
    wall = slower["workloads"]["sor64_ccl"]["end_to_end"]["wall_s"]
    for key in ("median", "min", "max"):
        wall[key] *= 1.5
    wall["samples"] = [x * 1.5 for x in wall["samples"]]
    sim = slower["workloads"]["paper8_ml"]["end_to_end"]["sim_log_mb"]
    sim["samples"] = [x + 1 for x in sim["samples"]]
    sim["median"] += 1
    lines, tally = compare.compare(document, slower, layers=False)
    assert tally["worse"] == 2
    assert compare.verdict(wall, document["workloads"]["sor64_ccl"]["end_to_end"]["wall_s"]) == "better"
