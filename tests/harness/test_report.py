"""Tests for the one-shot report generator."""

import pytest

from repro.config import ClusterConfig
from repro.harness import generate_report
from repro.harness.cli import main

CFG = ClusterConfig.ultra5(num_nodes=4)


@pytest.fixture(scope="module")
def report():
    return generate_report(CFG, scale="test", apps=["sor"], failed_node=1)


def test_report_contains_every_artefact(report):
    for heading in (
        "# Evaluation report",
        "## Table 1",
        "## Table 2",
        "## Figure 4",
        "## Figure 5",
        "## Claim checks",
    ):
        assert heading in report


def test_report_includes_both_configurations(report):
    assert "[paper-faithful configuration]" in report


def test_claim_checks_all_pass(report):
    """Every claim line ends in OK, whatever a failure would print."""
    section = report.split("## Claim checks", 1)[1].strip().splitlines()
    assert len(section) >= 3
    failed = [line for line in section if not line.endswith(" -- OK")]
    assert not failed


def test_report_without_recovery_section():
    text = generate_report(CFG, scale="test", apps=["sor"],
                           include_recovery=False)
    assert "## Figure 5" not in text
    assert "## Figure 4" in text


def test_cli_report_to_file(tmp_path, capsys):
    out = tmp_path / "report.md"
    code = main(["report", "--apps", "sor", "--scale", "test",
                 "--nodes", "4", "--failed-node", "1", "--out", str(out)])
    assert code == 0
    assert "report written" in capsys.readouterr().out
    assert "# Evaluation report" in out.read_text()
