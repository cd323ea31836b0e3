"""Tests for table/figure rendering."""

import pytest

from repro.config import ClusterConfig
from repro.harness import (
    logging_comparison,
    recovery_comparison,
    render_fig4,
    render_fig5,
    render_sweep,
    render_table1,
    render_table2_panel,
    sweep,
    table1_rows,
)

CFG = ClusterConfig.ultra5(num_nodes=4)


@pytest.fixture(scope="module")
def cmp_sor():
    return logging_comparison("sor", CFG, scale="test")


@pytest.fixture(scope="module")
def rec_sor():
    return recovery_comparison("sor", CFG, scale="test", failed_node=1)


class TestTable1:
    def test_rows_cover_paper_apps(self):
        rows = table1_rows(["fft3d", "mg", "shallow", "water"])
        assert [r["program"] for r in rows] == ["3D-FFT", "MG", "Shallow", "Water"]
        # paper-scale dataset strings (Table 1 documents the paper config)
        assert "100 iterations" in rows[0]["data_set"]
        assert "512 molecules" in rows[3]["data_set"]

    def test_render_contains_sync_column(self):
        text = render_table1(["water"])
        assert "locks and barriers" in text
        assert "Program" in text


class TestTable2:
    def test_render_panel(self, cmp_sor):
        text = render_table2_panel(cmp_sor)
        assert "None" in text and "ML" in text and "CCL" in text
        assert "Flushes" in text
        assert "% of ML's" in text


class TestFig4:
    def test_render(self, cmp_sor):
        text = render_fig4([cmp_sor])
        assert "Figure 4" in text
        assert "#" in text  # bars rendered


class TestFig5:
    def test_render(self, rec_sor):
        text = render_fig5([rec_sor])
        assert "Figure 5" in text
        assert "Re-Execution" in text and "Our Recovery" in text


class TestSweep:
    def test_sweep_and_render(self):
        points = sweep(
            [("a", {"x": 1}), ("b", {"x": 2})],
            lambda label, params: {"metric": params["x"] * 2.0},
        )
        assert [p.metrics["metric"] for p in points] == [2.0, 4.0]
        text = render_sweep("demo", points)
        assert "demo" in text and "metric" in text and "a" in text
