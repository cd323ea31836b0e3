"""Every experiment of DESIGN.md §4: one case per experiment-table row.

Each case runs its row of :data:`repro.harness.experiments.EXPERIMENTS`
once under pytest-benchmark (the simulations are deterministic), writes
the rendered artefact to ``benchmark_results/<artifact>.txt`` and
asserts the row's claims.
"""

import pytest

from repro.harness.experiments import EXPERIMENTS


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_experiment(benchmark, ultra5, save_artifact, name):
    row = EXPERIMENTS[name]
    text, failed = benchmark.pedantic(
        row.run, args=(ultra5,), rounds=1, iterations=1
    )
    save_artifact(row.artifact, text)
    print("\n" + text)
    assert not failed, [f"{row.id}: {claim.text}" for claim in failed]
