"""Parameter sweeps for the experiment table, serial or fanned out.

:func:`sweep` runs a measurement function over variants of the cluster
configuration (disk speed, page size, home policy, application...) and
tabulates its metrics per variant -- the machinery behind every row of
:mod:`repro.harness.experiments`.

Simulated runs are deterministic and share nothing, so variants (and,
at the CLI level, applications) fan out safely across processes:
``jobs > 1`` dispatches the measurement function through a
:class:`~concurrent.futures.ProcessPoolExecutor` while preserving the
variant order, which makes parallel output byte-identical to a serial
run.  The measurement callable must then be picklable -- a module-level
function or :func:`functools.partial`, not a closure.  The default
stays serial so timing tables quoted in EXPERIMENTS.md remain collected
under identical single-process conditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple, TypeVar

__all__ = ["SweepPoint", "sweep", "render_sweep", "parallel_map"]

T = TypeVar("T")
R = TypeVar("R")


@dataclass
class SweepPoint:
    """One sweep variant and its measured metrics (floats, except the
    paper rows' comparison objects, which their renderers draw)."""

    label: str
    params: Dict[str, Any]
    metrics: Dict[str, Any]


def parallel_map(fn: Callable[[T], R], items: Sequence[T], jobs: int = 1) -> List[R]:
    """``[fn(item) for item in items]``, optionally across processes.

    With ``jobs <= 1`` (or fewer than two items) this is a plain serial
    loop -- same process, same behaviour as before the parallel harness
    existed.  Otherwise items are dispatched to a process pool and
    results are returned **in input order**, so any output rendered
    from them is byte-identical to the serial run.  ``fn`` and the
    items must be picklable, and ``fn`` must not rely on mutated global
    state (each worker imports the module fresh under spawn-style start
    methods).
    """
    items = list(items)
    if jobs <= 1 or len(items) < 2:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        return list(pool.map(fn, items))


def _measure_variant(
    task: Tuple[Callable[[str, Dict[str, Any]], Dict[str, Any]], str, Dict[str, Any]],
) -> SweepPoint:
    measure, label, params = task
    return SweepPoint(label, dict(params), measure(label, params))


def sweep(
    variants: Iterable[Tuple[str, Dict[str, Any]]],
    measure: Callable[[str, Dict[str, Any]], Dict[str, Any]],
    jobs: int = 1,
) -> List[SweepPoint]:
    """Run ``measure(label, params)`` for every variant.

    ``jobs > 1`` fans the variants out over a process pool (see
    :func:`parallel_map` for the determinism and picklability rules).
    """
    return parallel_map(
        _measure_variant,
        [(measure, label, params) for label, params in variants],
        jobs=jobs,
    )


def render_sweep(title: str, points: List[SweepPoint]) -> str:
    """Aligned-text table of a sweep's metrics."""
    if not points:
        return f"{title}\n(no data)"
    metric_names = list(points[0].metrics.keys())
    label_w = max(len("variant"), *(len(p.label) for p in points))
    cols = [max(len(m), 12) for m in metric_names]
    lines = [
        title,
        "variant".ljust(label_w)
        + "".join(f"  {m:>{w}}" for m, w in zip(metric_names, cols)),
    ]
    for p in points:
        cells = "".join(
            f"  {p.metrics[m]:>{w}.4g}" for m, w in zip(metric_names, cols)
        )
        lines.append(p.label.ljust(label_w) + cells)
    return "\n".join(lines)
