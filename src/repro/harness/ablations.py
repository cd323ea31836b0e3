"""CLI-facing ablation sweeps (parallelisable variants of A2/A3).

The pytest ablation benches under ``benchmarks/`` time one artefact
each; this module exposes the same sweeps as plain functions so
``python -m repro ablation --which disk --jobs 4`` can fan the variants
out across processes.  Every measurement function is module-level (the
process-pool pickling rule of :func:`repro.harness.sweep.sweep`), and
each variant is an independent deterministic simulation, so parallel
output is byte-identical to serial output.

Finished sweeps are appended to ``benchmark_results/history.jsonl``
(one compact entry per run, alongside the perf trajectory), so ablation
numbers survive the runner and regressions show up as diffs in review.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Tuple

from ..config import ClusterConfig, DiskConfig
from .runner import logging_comparison
from .sweep import SweepPoint, render_sweep, sweep

__all__ = ["ABLATIONS", "run_ablation", "append_ablation_history"]


def _disk_variants(config: ClusterConfig) -> List[Tuple[str, Dict[str, Any]]]:
    disks = [
        ("fast", DiskConfig(write_latency_s=0.1e-3, bandwidth_bps=30e6)),
        ("default", DiskConfig()),
        ("slow", DiskConfig(write_latency_s=2e-3, bandwidth_bps=3e6)),
    ]
    return [
        (label, {"config": config.with_changes(disk=disk), "scale": "test"})
        for label, disk in disks
    ]


def _measure_disk(label: str, params: Dict[str, Any]) -> Dict[str, float]:
    cmp = logging_comparison("mg", params["config"], scale=params["scale"])
    return {
        "ml_overhead_pct": 100 * (cmp.normalized_time("ml") - 1),
        "ccl_overhead_pct": 100 * (cmp.normalized_time("ccl") - 1),
    }


def _pagesize_variants(config: ClusterConfig) -> List[Tuple[str, Dict[str, Any]]]:
    return [
        (
            f"{page}B",
            {"config": config.with_changes(page_size=page), "scale": "test"},
        )
        for page in (1024, 4096, 16384)
    ]


def _measure_pagesize(label: str, params: Dict[str, Any]) -> Dict[str, float]:
    cmp = logging_comparison("fft3d", params["config"], scale=params["scale"])
    ml = cmp.results["ml"]
    return {
        "exec_none_s": cmp.row("none").exec_time_s,
        "ml_log_mb": cmp.row("ml").total_log_mb,
        "ccl_log_mb": cmp.row("ccl").total_log_mb,
        "ccl_over_ml_pct": 100 * cmp.ccl_log_fraction,
        "page_faults": float(ml.aggregate.counters.get("page_faults", 0)),
    }


def _logsize_variants(config: ClusterConfig) -> List[Tuple[str, Dict[str, Any]]]:
    """Log growth vs checkpoint interval: more iterations, with and
    without checkpoint-driven truncation.

    Pinned to 4 nodes: the sweep varies run length, not cluster size
    (every variant also recovers bit-exactly at 8 nodes, with and
    without retention).
    """
    config = config.with_changes(num_nodes=4)
    out: List[Tuple[str, Dict[str, Any]]] = []
    for steps in (4, 8, 16):
        out.append((f"s{steps}/none", {"config": config, "steps": steps,
                                       "every": None}))
        out.append((f"s{steps}/ck4", {"config": config, "steps": steps,
                                      "every": 4}))
    return out


def _measure_logsize(label: str, params: Dict[str, Any]) -> Dict[str, float]:
    from ..apps import make_app
    from ..core.recovery import run_recovery_experiment

    # ML: replay is purely local, so truncating every node's log below
    # its own retained checkpoints is always safe.  (CCL peers rebuild
    # cold pages from full diff histories, so truncation there trades
    # retention depth against refusals, mismatches and undiagnosed
    # errors; see tests/core/test_salvage.py's restore-mode defects.)
    result = run_recovery_experiment(
        make_app("shallow", n=16, steps=params["steps"]),
        params["config"],
        "ml",
        failed_nodes=(1,),
        checkpoint_every=params["every"],
        retention=2 if params["every"] else None,
    )
    a = result.phase_a
    return {
        "bytes_flushed_kb": a.total_log_bytes / 1024,
        "live_log_kb": a.live_log_bytes / 1024,
        "reclaimed_kb": a.reclaimed_log_bytes / 1024,
        "recovery_ms": result.recovery_time * 1e3,
        "ok": float(result.ok),
    }


def _adaptive_variants(config: ClusterConfig) -> List[Tuple[str, Dict[str, Any]]]:
    from ..apps import PAPER_APPS

    return [
        (app, {"config": config, "scale": "test", "app": app})
        for app in PAPER_APPS
    ]


def _measure_adaptive(label: str, params: Dict[str, Any]) -> Dict[str, float]:
    """Static CCL vs static ML vs the adaptive hybrid, one app per row.

    The recovery budget handed to the adaptive cost model is 1.2x the
    better static protocol's measured recovery time, so "budget met"
    is a real constraint rather than a formality; failure-free
    overheads are normalised to the no-logging run as in Figure 4.
    """
    from ..apps import make_app
    from ..core.recovery import run_recovery_experiment
    from .runner import run_application
    from .scales import app_kwargs

    config, scale, app = params["config"], params["scale"], params["app"]
    kwargs = app_kwargs(app, scale)

    # static recovery times anchor the budget
    static_rec: Dict[str, float] = {}
    for protocol in ("ml", "ccl"):
        res = run_recovery_experiment(
            make_app(app, **kwargs), config, protocol, failed_nodes=(3,),
        )
        if not res.ok:
            raise RuntimeError(f"{app}/{protocol} recovery diverged")
        static_rec[protocol] = res.recovery_time
    budget = 1.2 * min(static_rec.values())

    times: Dict[str, float] = {}
    for protocol in ("none", "ml", "ccl"):
        result, _sys = run_application(
            app, protocol, config, scale, verify=False,
        )
        times[protocol] = result.total_time
    adaptive_run, _sys = run_application(
        app, "adaptive", config, scale, verify=False, recovery_budget=budget,
    )
    times["adaptive"] = adaptive_run.total_time
    switches = sum(
        s.get("mode_switches", 0) for s in adaptive_run.log_summaries
    )

    adaptive_rec = run_recovery_experiment(
        make_app(app, **kwargs), config, "adaptive", failed_nodes=(3,),
        recovery_budget=budget,
    )
    if not adaptive_rec.ok:
        raise RuntimeError(f"{app}/adaptive recovery diverged")

    base = times["none"]
    return {
        "oh_ml_pct": 100 * (times["ml"] / base - 1),
        "oh_ccl_pct": 100 * (times["ccl"] / base - 1),
        "oh_adaptive_pct": 100 * (times["adaptive"] / base - 1),
        "rec_ml_ms": static_rec["ml"] * 1e3,
        "rec_ccl_ms": static_rec["ccl"] * 1e3,
        "rec_adaptive_ms": adaptive_rec.recovery_time * 1e3,
        "budget_ms": budget * 1e3,
        "budget_met": float(adaptive_rec.recovery_time <= budget),
        "switches": float(switches),
    }


def _replication_variants(
    config: ClusterConfig,
) -> List[Tuple[str, Dict[str, Any]]]:
    from ..apps import PAPER_APPS

    return [
        (app, {"config": config, "scale": "test", "app": app})
        for app in PAPER_APPS
    ]


def _measure_replication(label: str, params: Dict[str, Any]) -> Dict[str, float]:
    """Quorum replication: failure-free overhead and recovery time vs k.

    One app per row.  Failure-free runs use the failover logging
    protocol at replication 1 (no mirror traffic: byte-identical to an
    unreplicated run), 2, and 3; overheads are normalised to k=1.
    Recovery at k=1 is classic log replay (no replica to promote);
    k>=2 is replay-free failover -- detection, promotion fencing, and a
    metadata-suffix catch-up, never page-content replay.  One driver
    serves every k: the scheme table promotes only when replicas exist.
    """
    from ..apps import make_app
    from ..core.recovery import run_recovery_experiment
    from .runner import run_application
    from .scales import app_kwargs

    config, scale, app = params["config"], params["scale"], params["app"]
    kwargs = app_kwargs(app, scale)

    times: Dict[int, float] = {}
    stall: Dict[int, float] = {}
    rec: Dict[int, float] = {}
    for k in (1, 2, 3):
        result, _sys = run_application(
            app, "failover", config, scale, verify=False, replication=k,
        )
        times[k] = result.total_time
        stall[k] = sum(
            s.get("quorum_stall_s", 0.0)
            for s in (result.replication_stats or [])
        )
        res = run_recovery_experiment(
            make_app(app, **kwargs), config, "failover", failed_nodes=(3,),
            replication=k,
        )
        if not res.ok:
            raise RuntimeError(
                f"{app}/failover k={k} diverged: "
                f"{res.victims[0].mismatches[:3]}"
            )
        rec[k] = res.recovery_time

    base = times[1]
    return {
        "oh_r2_pct": 100 * (times[2] / base - 1),
        "oh_r3_pct": 100 * (times[3] / base - 1),
        "stall_r2_ms": stall[2] * 1e3,
        "stall_r3_ms": stall[3] * 1e3,
        "rec_replay_ms": rec[1] * 1e3,
        "rec_r2_ms": rec[2] * 1e3,
        "rec_r3_ms": rec[3] * 1e3,
        "speedup_r2": rec[1] / rec[2] if rec[2] else 0.0,
    }


#: name -> (title, variants builder, module-level measure function)
ABLATIONS = {
    "disk": (
        "A2: disk speed vs logging overhead (MG)",
        _disk_variants,
        _measure_disk,
    ),
    "pagesize": (
        "A3: page size vs traffic and log ratio (3D-FFT)",
        _pagesize_variants,
        _measure_pagesize,
    ),
    "logsize": (
        "A4: live log size vs checkpoint-driven truncation (SHALLOW/ML)",
        _logsize_variants,
        _measure_logsize,
    ),
    "adaptive": (
        "A5: static CCL vs static ML vs adaptive hybrid (budget = "
        "1.2x better static recovery)",
        _adaptive_variants,
        _measure_adaptive,
    ),
    "replication": (
        "A6: quorum replication factor vs overhead and replay-free "
        "failover recovery (overheads vs k=1)",
        _replication_variants,
        _measure_replication,
    ),
}


def run_ablation(
    which: str, config: ClusterConfig, jobs: int = 1
) -> Tuple[str, List[SweepPoint]]:
    """Run one named ablation sweep; returns (rendered table, points)."""
    try:
        title, variants_fn, measure = ABLATIONS[which]
    except KeyError:
        raise KeyError(
            f"unknown ablation {which!r}; choices: {sorted(ABLATIONS)}"
        ) from None
    points = sweep(variants_fn(config), measure, jobs=jobs)
    return render_sweep(title, points), points


def append_ablation_history(
    which: str,
    points: List[SweepPoint],
    path: str = "benchmark_results/history.jsonl",
) -> Dict[str, Any]:
    """Append one compact ablation entry to the trajectory file.

    The perf gate baselines each metric family against the most recent
    entry that carries it, so an ``ablation`` entry (which carries
    none of the perf families) rides along without disturbing it.
    """
    from ..obs.artifacts import git_rev

    entry: Dict[str, Any] = {
        "schema": 1,
        "kind": "ablation",
        "which": which,
        "ts": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "git_rev": git_rev(),
        "points": {p.label: dict(p.metrics) for p in points},
    }
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry
