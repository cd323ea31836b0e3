"""Module -> layer table and cProfile self-time attribution.

The benchmark measures layers from outside: the child process wraps the
timed region in ``cProfile`` and this module folds the profile's
per-function self-time into the layers below.  Self-time of a function
in ``src/repro`` goes to its module's layer.  Self-time of anything
else (builtins, numpy, the stdlib) is charged to the layer of the first
``repro`` frame up its pstats caller edges, and to ``other`` when no
such frame exists (the benchmark's own frames, profiler bookkeeping).

``RULES`` is ordered and first match wins, so ``dsm/interval.py`` can
sit in front of the catch-all ``dsm/*``.  ``test_layers.py`` fails when
a module under ``src/repro`` matches no rule.
"""

from __future__ import annotations

import pstats
from fnmatch import fnmatchcase
from typing import Dict, Optional, Tuple

__all__ = ["LAYERS", "RULES", "layer_of_module", "attribute"]

#: (glob on the path relative to ``src/repro``, layer); first match wins.
RULES: Tuple[Tuple[str, str], ...] = (
    ("sim/network.py", "sim.network"),
    ("sim/disk.py", "sim.disk"),
    ("sim/faults.py", "sim.faults"),
    ("sim/trace.py", "obs"),
    ("sim/stats.py", "obs"),
    ("sim/*", "sim.engine"),  # engine, events, process, resources
    ("dsm/interval.py", "dsm.interval"),
    ("dsm/*", "dsm.hlrc"),
    ("memory/diff.py", "memory.diff"),
    ("memory/*", "memory.pages"),
    ("core/*recovery*.py", "core.recovery"),
    ("core/checkpoint.py", "core.recovery"),
    ("core/responder.py", "core.recovery"),
    ("core/salvage.py", "core.recovery"),
    ("core/failure.py", "core.recovery"),
    ("core/detector.py", "core.recovery"),
    ("core/replication.py", "core.replication"),
    ("core/chaos.py", "core.chaos"),
    ("core/*", "core.logging"),  # ccl, ml, adaptive, log records/format, stable log
    ("obs/*", "obs"),
    ("apps/*", "apps"),
    ("harness/*", "harness"),
    ("analysis/*", "harness"),
    ("*.py", "harness"),  # config, errors, package root
)

LAYERS: Tuple[str, ...] = (
    "sim.engine", "sim.network", "sim.disk", "sim.faults",
    "dsm.hlrc", "dsm.interval", "memory.diff", "memory.pages",
    "core.logging", "core.recovery", "core.replication", "core.chaos",
    "obs", "apps", "harness", "other",
)

_PACKAGE_MARKER = "/src/repro/"


def layer_of_module(relpath: str) -> Optional[str]:
    """Layer of a module given its path relative to ``src/repro``."""
    for pattern, layer in RULES:
        if fnmatchcase(relpath, pattern):
            return layer
    return None


def _layer_of_file(filename: str) -> Optional[str]:
    """Layer of a profiled function's file, None for non-``repro`` code."""
    idx = filename.replace("\\", "/").rfind(_PACKAGE_MARKER)
    if idx < 0:
        return None
    return layer_of_module(filename[idx + len(_PACKAGE_MARKER):]) or "other"


def attribute(stats: pstats.Stats) -> Dict[str, Dict[str, float]]:
    """Fold a profile into ``{layer: {"self_s": s, "calls": n}}``.

    ``calls`` counts calls of the layer's own ``repro`` functions only;
    it is exact for a deterministic run.  ``self_s`` also carries the
    foreign self-time the layer's functions caused.
    """
    table = stats.stats  # func -> (cc, nc, tt, ct, callers)
    out = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    layer_of = {func: _layer_of_file(func[0]) for func in table}
    owners: Dict[tuple, Dict[str, float]] = {}

    def owner(func: tuple, trail: frozenset) -> Dict[str, float]:
        """Layer shares owning a frame: itself, or its callers' owners."""
        layer = layer_of.get(func)
        if layer is not None:
            return {layer: 1.0}
        if func in owners:
            return owners[func]
        callers = table[func][4] if func in table else {}
        callers = {c: e for c, e in callers.items() if c not in trail}
        if not callers:
            return {"other": 1.0}
        # weight each caller by the cumulative time spent under it
        weights = {c: e[3] for c, e in callers.items()}
        if sum(weights.values()) <= 0:
            weights = {c: float(e[0]) or 1.0 for c, e in callers.items()}
        total = sum(weights.values())
        shares: Dict[str, float] = {}
        for caller, weight in weights.items():
            for lay, frac in owner(caller, trail | {func}).items():
                shares[lay] = shares.get(lay, 0.0) + frac * weight / total
        if not trail:  # a result cut short by the cycle guard is not reusable
            owners[func] = shares
        return shares

    for func, (_cc, nc, tt, _ct, callers) in table.items():
        layer = layer_of[func]
        if layer is not None:
            out[layer]["self_s"] += tt
            out[layer]["calls"] += nc
            continue
        if not callers:
            out["other"]["self_s"] += tt
            continue
        for caller, edge in callers.items():
            for lay, frac in owner(caller, frozenset()).items():
                out[lay]["self_s"] += edge[2] * frac
    return out
