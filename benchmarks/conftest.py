"""Shared fixtures for the benchmark harness.

``bench_experiments.py`` regenerates every artefact of the evaluation
(a Table 2 panel, Figure 4/5 series, or an ablation), measures its
wall-clock cost via pytest-benchmark (one round -- the simulations are
deterministic), and writes the rendered artefact to
``benchmark_results/<name>.txt`` so it survives output capturing.
"""

import pathlib

import pytest

from repro.config import ClusterConfig

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmark_results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def ultra5() -> ClusterConfig:
    """The paper's 8-node testbed."""
    return ClusterConfig.ultra5(num_nodes=8)


@pytest.fixture(scope="session")
def save_artifact(results_dir):
    """Persist a rendered table/figure next to the benchmark output."""

    def _save(name: str, text: str) -> None:
        (results_dir / f"{name}.txt").write_text(text + "\n")

    return _save
