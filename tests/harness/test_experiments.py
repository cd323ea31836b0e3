"""The experiment table and its CLI consumer, without heavy simulation."""

import re
from pathlib import Path

from repro.config import ClusterConfig
from repro.harness.cli import _parser, main
from repro.harness.experiments import EXPERIMENTS, Claim, Experiment

DESIGN = Path(__file__).resolve().parents[2] / "DESIGN.md"


def _measure_one(label, params):
    return {"x": 1.0}


def _row(*claims):
    return Experiment(
        "T1", "a one-variant row", "t1",
        lambda config: [("a", {"config": config})], _measure_one, claims,
    )


def test_which_choices_are_the_table_keys():
    (sub,) = [a for a in _parser()._actions if a.dest == "command"]
    (which,) = [a for a in sub.choices["ablation"]._actions
                if a.dest == "which"]
    assert list(which.choices) == list(EXPERIMENTS)
    assert main(["ablation", "--which", "nonesuch"]) == 2


def test_ids_match_design_index():
    section = DESIGN.read_text().split("## 4.", 1)[1].split("\n## ", 1)[0]
    design_ids = set(re.findall(r"^\| ([EAX]\d) \|", section, re.M))
    assert design_ids - {"X1", "X3"} == {r.id for r in EXPERIMENTS.values()}


def test_failed_claim_exits_1_and_is_printed(monkeypatch, capsys):
    monkeypatch.setitem(EXPERIMENTS, "fake", _row(
        Claim("x is one", lambda p: p["a"]["x"] == 1.0),
        Claim("x is two", lambda p: p["a"]["x"] == 2.0),
    ))
    assert main(["ablation", "--which", "fake"]) == 1
    out = capsys.readouterr()
    assert out.out.startswith("T1: a one-variant row\n")
    assert "T1 claim failed: x is two" in out.err
    assert "x is one" not in out.err


def test_holding_claims_exit_0(monkeypatch):
    monkeypatch.setitem(EXPERIMENTS, "fake", _row(
        Claim("x is one", lambda p: p["a"]["x"] == 1.0),
    ))
    assert main(["ablation", "--which", "fake"]) == 0


def test_run_renders_and_checks_one_row():
    text, failed = _row(Claim("never", lambda p: False)).run(
        ClusterConfig.ultra5(num_nodes=2)
    )
    assert text.splitlines()[-1].split() == ["a", "1"]
    assert [c.text for c in failed] == ["never"]
