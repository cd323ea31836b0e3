"""Benchmark dataset scales.

The paper's Table 1 datasets (100 iterations of 3D-FFT, 200 MG cycles,
5000 Shallow steps, 120 Water steps on 512 molecules) take minutes of
simulation in pure Python, so the benchmark harness runs a *bench
scale*: large enough that per-interval protocol traffic is in the
paper's regime (tens of pages per interval, intervals much longer than
per-event overheads), small enough that the whole Table 2 / Figure 4/5
sweep finishes in a couple of minutes under pytest-benchmark.  The
``paper`` scale is available for longer runs; ``test`` matches the unit
tests.  EXPERIMENTS.md records which scale produced each reported
number.
"""

from __future__ import annotations

from typing import Any, Dict

__all__ = ["SCALES", "app_kwargs"]

#: scale -> app -> constructor kwargs
SCALES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "test": {
        "fft3d": dict(n=16, iters=4),
        "mg": dict(n=16, cycles=3),
        "shallow": dict(n=32, steps=6),
        "water": dict(molecules=64, steps=3),
        "sor": dict(n=32, iters=4),
    },
    "bench": {
        "fft3d": dict(n=32, iters=6),
        "mg": dict(n=32, cycles=3),
        "shallow": dict(n=128, steps=10),
        "water": dict(molecules=216, steps=4),
        "sor": dict(n=128, iters=10),
    },
    "paper": {
        "fft3d": dict(paper_scale=True),
        "mg": dict(paper_scale=True),
        "shallow": dict(paper_scale=True),
        "water": dict(paper_scale=True),
        "sor": dict(paper_scale=True),
    },
}


def app_kwargs(name: str, scale: str = "bench") -> Dict[str, Any]:
    """Constructor kwargs for an application at a given scale."""
    try:
        return dict(SCALES[scale][name])
    except KeyError:
        raise KeyError(f"no scale {scale!r} for app {name!r}") from None
