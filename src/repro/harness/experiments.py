"""The experiment table: every paper artefact and ablation, defined once.

:data:`EXPERIMENTS` holds one :class:`Experiment` row per experiment of
DESIGN.md §4: its id and title, its variants, a module-level measure
function (so ``--jobs`` can pickle it), its artefact's renderer, and its
claims -- predicates over the measured points, keyed by variant label.
``repro ablation --which NAME`` runs one row and exits 1 on a failed
claim; ``benchmarks/bench_experiments.py`` runs every row and writes
``benchmark_results/<artifact>.txt``; ``repro report`` checks the paper
rows' claims on the comparisons it ran.  A row's scale is part of its
definition, and variants that share a failure-free baseline get it from
their variant builder.  Every variant is an independent deterministic
simulation, so ``jobs > 1`` renders byte-identically to a serial run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from ..apps import PAPER_APPS, make_app
from ..config import ClusterConfig, DiskConfig
from ..core import (
    CCL,
    CCL_NO_OVERLAP,
    PolicyLogging,
    RecoveryResult,
    run_recovery_experiment,
)
from ..dsm import DsmSystem, RunResult
from ..errors import HarnessError
from .figures import render_fig4, render_fig5
from .runner import (
    LoggingComparison,
    logging_comparison,
    logging_comparison_task,
    recovery_comparison_task,
    run_application,
)
from .scales import app_kwargs
from .sweep import SweepPoint, render_sweep, sweep
from .tables import render_table1, render_table2_panel

__all__ = ["Claim", "Experiment", "EXPERIMENTS", "TABLE2_CLAIMS"]

#: variant label -> that variant's measured metrics
Points = Dict[str, Dict[str, Any]]
Variants = List[Tuple[str, Dict[str, Any]]]


@dataclass(frozen=True)
class Claim:
    """A stated property of a row's measured points."""

    text: str
    holds: Callable[[Points], bool]


@dataclass(frozen=True)
class Experiment:
    """One row of the experiment table."""

    id: str
    title: str
    artifact: str
    variants: Callable[[ClusterConfig], Variants]
    measure: Callable[[str, Dict[str, Any]], Dict[str, Any]]
    claims: Tuple[Claim, ...] = ()
    render: Callable[[str, List[SweepPoint]], str] = render_sweep

    def run(self, config: ClusterConfig,
            jobs: int = 1) -> Tuple[str, List[Claim]]:
        """Measure every variant; the rendered artefact and failed claims."""
        points = sweep(self.variants(config), self.measure, jobs=jobs)
        metrics = {p.label: p.metrics for p in points}
        failed = [c for c in self.claims if not c.holds(metrics)]
        return self.render(f"{self.id}: {self.title}", points), failed


def _every(pred: Callable[[Dict[str, Any]], bool]) -> Callable[[Points], bool]:
    """A claim predicate that holds when ``pred`` holds on every point."""
    return lambda points: all(pred(m) for m in points.values())


def _each(*labels: str) -> Callable[[ClusterConfig], Variants]:
    """Variant builder: one variant per label (an app, a home policy)."""
    return lambda config: [(label, {"config": config}) for label in labels]


# ----------------------------------------------------------------------
# E1-E7: the paper's Table 1, Table 2(a)-(d), Figures 4 and 5
# ----------------------------------------------------------------------
def _measure_table1(app: str, params: Dict[str, Any]) -> Dict[str, Any]:
    result, _system = run_application(app, "none", params["config"], "test")
    return {"exec_s": result.total_time}


def _render_table1(title: str, points: List[SweepPoint]) -> str:
    return render_table1([p.label for p in points])


def _comparison(app: str, config: ClusterConfig,
                paper_mode: bool = False) -> LoggingComparison:
    return logging_comparison_task(dict(
        app_name=app, config=config, scale="bench", paper_mode=paper_mode,
    ))


def _measure_table2(app: str, params: Dict[str, Any]) -> Dict[str, Any]:
    """The sound default (round-robin homes, home-write diff logging) and
    the paper-faithful mode (writer-aligned homes, no home-write log)."""
    return {
        "sound": _comparison(app, params["config"]),
        "paper": _comparison(app, params["config"], paper_mode=True),
    }


def _render_table2(title: str, points: List[SweepPoint]) -> str:
    (point,) = points
    return (
        render_table2_panel(point.metrics["sound"])
        + "\n\n[paper-faithful configuration: aligned homes, no home-write"
        " logging]\n"
        + render_table2_panel(point.metrics["paper"])
    )


def _measure_fig4(app: str, params: Dict[str, Any]) -> Dict[str, Any]:
    return {"sound": _comparison(app, params["config"])}


def _render_fig4(title: str, points: List[SweepPoint]) -> str:
    return render_fig4([p.metrics["sound"] for p in points])


def _measure_fig5(app: str, params: Dict[str, Any]) -> Dict[str, Any]:
    """Re-execution vs a crash of node 3 at its final interval, recovered
    under ML and under CCL; a recovery that is not bit-exact raises."""
    return {"rec": recovery_comparison_task(dict(
        app_name=app, config=params["config"], scale="bench", failed_node=3,
    ))}


def _render_fig5(title: str, points: List[SweepPoint]) -> str:
    return render_fig5([p.metrics["rec"] for p in points])


#: Section 4.2's claims, shared by E2-E5 (one panel per application).
TABLE2_CLAIMS = (
    Claim("CCL runs faster than ML, sound and paper mode",
          _every(lambda m: all(
              m[c].normalized_time("ccl") < m[c].normalized_time("ml")
              for c in ("sound", "paper")))),
    Claim("CCL logs less than ML, sound and paper mode",
          _every(lambda m: m["sound"].ccl_log_fraction < 1.0
                 and m["paper"].ccl_log_fraction < 1.0)),
    Claim("paper-mode CCL log < 20 % of ML's (paper: 4.5-12.5 %)",
          _every(lambda m: m["paper"].ccl_log_fraction < 0.20)),
)


def _table2(exp_id: str, panel: str, app: str, label: str) -> Experiment:
    return Experiment(
        exp_id, f"Table 2({panel}): {label} overhead detail",
        f"table2{panel}_{app}", _each(app), _measure_table2,
        TABLE2_CLAIMS, _render_table2,
    )


# ----------------------------------------------------------------------
# A1-A5: ablations of the design choices
# ----------------------------------------------------------------------
def _failure_free(app: str, scale: str, config: ClusterConfig) -> RunResult:
    """One no-logging run: the baseline a row's variants share."""
    return DsmSystem(make_app(app, **app_kwargs(app, scale)), config).run()


def _overlap_variants(config: ClusterConfig) -> Variants:
    base_s = _failure_free("fft3d", "bench", config).total_time
    return [
        (label, {"config": config, "overlap": overlap, "base_s": base_s})
        for label, overlap in (("ccl+overlap", True),
                               ("ccl-no-overlap", False))
    ]


def _measure_overlap(label: str, params: Dict[str, Any]) -> Dict[str, Any]:
    """CCL with its flush issued alongside the diff round trip (the
    paper's design) or synchronously at sync entry, on 3D-FFT."""
    policy = CCL if params["overlap"] else CCL_NO_OVERLAP
    exec_s = DsmSystem(
        make_app("fft3d", **app_kwargs("fft3d", "bench")),
        params["config"],
        lambda _i: PolicyLogging(policy),
    ).run().total_time
    return {
        "exec_s": exec_s,
        "overhead_pct": 100 * (exec_s / params["base_s"] - 1),
    }


def _disk_variants(config: ClusterConfig) -> Variants:
    return [
        (label, {"config": config.with_changes(disk=disk)})
        for label, disk in (
            ("fast", DiskConfig(write_latency_s=0.1e-3, bandwidth_bps=30e6)),
            ("default", DiskConfig()),
            ("slow", DiskConfig(write_latency_s=2e-3, bandwidth_bps=3e6)),
        )
    ]


def _measure_disk(label: str, params: Dict[str, Any]) -> Dict[str, Any]:
    cmp = logging_comparison("mg", params["config"], scale="test")
    return {
        "ml_overhead_pct": 100 * (cmp.normalized_time("ml") - 1),
        "ccl_overhead_pct": 100 * (cmp.normalized_time("ccl") - 1),
    }


def _spread(points: Points, metric: str) -> float:
    return points["slow"][metric] - points["fast"][metric]


def _pagesize_variants(config: ClusterConfig) -> Variants:
    return [
        (f"{page}B", {"config": config.with_changes(page_size=page)})
        for page in (1024, 4096, 16384)
    ]


def _measure_pagesize(label: str, params: Dict[str, Any]) -> Dict[str, Any]:
    cmp = logging_comparison("fft3d", params["config"], scale="test")
    ml = cmp.results["ml"]
    return {
        "exec_none_s": cmp.row("none").exec_time_s,
        "ml_log_mb": cmp.row("ml").total_log_mb,
        "ccl_log_mb": cmp.row("ccl").total_log_mb,
        "ccl_over_ml_pct": 100 * cmp.ccl_log_fraction,
        "page_faults": float(ml.aggregate.counters.get("page_faults", 0)),
    }


def _measure_home(policy: str, params: Dict[str, Any]) -> Dict[str, Any]:
    """Red-black SOR with round-robin or writer-aligned home pages."""
    app = make_app("sor", home_policy=policy, **app_kwargs("sor", "bench"))
    system = DsmSystem(app, params["config"])
    result = system.run()
    if not app.verify(system):
        raise HarnessError(f"sor failed numerical verification ({policy})")
    agg = result.aggregate
    return {
        "exec_s": result.total_time,
        "diffs": float(agg.counters.get("diffs_created", 0)),
        "diff_kb": agg.counters.get("diff_bytes_sent", 0) / 1024.0,
        "faults": float(agg.counters.get("page_faults", 0)),
        "net_mb": result.network_bytes / (1024.0 * 1024.0),
    }


def _failpoint_variants(config: ClusterConfig) -> Variants:
    base = _failure_free("fft3d", "test", config)
    seals = base.nodes[3].seal_count
    return [
        (f"{int(100 * frac)}%", {
            "config": config, "reexec_s": base.total_time,
            "seal": max(1, int(round(frac * seals))),
        })
        for frac in (0.25, 0.5, 0.75, 1.0)
    ]


def _recover(app: str, config: ClusterConfig, protocol: str,
             failed_nodes: Tuple[int, ...] = (3,), **kw) -> RecoveryResult:
    """Crash and recover ``app`` at test scale; raises unless bit-exact."""
    res = run_recovery_experiment(
        make_app(app, **app_kwargs(app, "test")), config, protocol,
        failed_nodes=failed_nodes, **kw,
    )
    if not res.ok:
        raise HarnessError(
            f"{app}/{protocol} recovery diverged: "
            f"{[v.mismatches[:3] for v in res.victims]}"
        )
    return res


def _run(app: str, config: ClusterConfig, protocol: str, **kw) -> RunResult:
    return run_application(app, protocol, config, "test", verify=False,
                           **kw)[0]


def _measure_failpoint(label: str, params: Dict[str, Any]) -> Dict[str, Any]:
    """Node 3 of 3D-FFT crashes at a fraction of its seals."""
    res = _recover("fft3d", params["config"], "ccl", at_seal=params["seal"])
    return {
        "recovery_s": res.recovery_time,
        "vs_reexec": res.recovery_time / params["reexec_s"],
    }


# ----------------------------------------------------------------------
# X2, X4-X6: extensions beyond the paper
# ----------------------------------------------------------------------
def _multifailure_variants(config: ClusterConfig) -> Variants:
    reexec_s = _failure_free("fft3d", "test", config).total_time
    return [
        (f"{len(failed)} victim(s)",
         {"config": config, "failed": failed, "reexec_s": reexec_s})
        for failed in ((3,), (1, 5), (0, 2, 4, 6))
    ]


def _measure_multifailure(label: str, params: Dict[str, Any]) -> Dict[str, Any]:
    """The victims crash at their final intervals and replay concurrently,
    serving each other from their surviving logs."""
    res = _recover("fft3d", params["config"], "ccl", params["failed"])
    return {
        "recovery_s": res.recovery_time,
        "vs_reexec": res.recovery_time / params["reexec_s"],
        "slowest_victim": max(v.recovery_time for v in res.victims),
    }


def _measure_adaptive(app: str, params: Dict[str, Any]) -> Dict[str, Any]:
    """Static CCL vs static ML vs the adaptive hybrid, one app per row.

    The recovery budget handed to the adaptive cost model is 1.2x the
    better static protocol's measured recovery time, so "budget met"
    is a real constraint rather than a formality; failure-free
    overheads are normalised to the no-logging run as in Figure 4.
    """
    config = params["config"]
    rec = {p: _recover(app, config, p).recovery_time for p in ("ml", "ccl")}
    budget = 1.2 * min(rec.values())
    rec["adaptive"] = _recover(
        app, config, "adaptive", recovery_budget=budget).recovery_time
    runs = {p: _run(app, config, p) for p in ("none", "ml", "ccl")}
    runs["adaptive"] = _run(app, config, "adaptive", recovery_budget=budget)
    oh = {p: 100 * (r.total_time / runs["none"].total_time - 1)
          for p, r in runs.items()}
    return {
        "oh_ml_pct": oh["ml"],
        "oh_ccl_pct": oh["ccl"],
        "oh_adaptive_pct": oh["adaptive"],
        "rec_ml_ms": rec["ml"] * 1e3,
        "rec_ccl_ms": rec["ccl"] * 1e3,
        "rec_adaptive_ms": rec["adaptive"] * 1e3,
        "budget_ms": budget * 1e3,
        "budget_met": float(rec["adaptive"] <= budget),
        "switches": float(sum(
            s.get("mode_switches", 0) for s in runs["adaptive"].log_summaries
        )),
    }


def _measure_replication(app: str, params: Dict[str, Any]) -> Dict[str, Any]:
    """Failover logging at replication k = 1, 2, 3: failure-free
    overhead vs k=1, and recovery time -- log replay at k=1 (no replica
    to promote), replay-free failover (promotion and a metadata-suffix
    catch-up) at k>=2."""
    config, ks = params["config"], (1, 2, 3)
    runs = {k: _run(app, config, "failover", replication=k) for k in ks}
    rec = {k: _recover(app, config, "failover", replication=k).recovery_time
           for k in ks}
    stall = {k: sum(s.get("quorum_stall_s", 0.0)
                    for s in (r.replication_stats or []))
             for k, r in runs.items()}
    base = runs[1].total_time
    return {
        "oh_r2_pct": 100 * (runs[2].total_time / base - 1),
        "oh_r3_pct": 100 * (runs[3].total_time / base - 1),
        "stall_r2_ms": stall[2] * 1e3,
        "stall_r3_ms": stall[3] * 1e3,
        "rec_replay_ms": rec[1] * 1e3,
        "rec_r2_ms": rec[2] * 1e3,
        "rec_r3_ms": rec[3] * 1e3,
        "speedup_r2": rec[1] / rec[2] if rec[2] else 0.0,
    }


def _logsize_variants(config: ClusterConfig) -> Variants:
    """Longer runs, with and without checkpoint-driven truncation, on 4
    nodes: the sweep varies run length, not cluster size."""
    config = config.with_changes(num_nodes=4)
    return [
        (f"s{steps}/{name}", {"config": config, "steps": steps,
                              "every": every})
        for steps in (4, 8, 16)
        for name, every in (("none", None), ("ck4", 4))
    ]


def _measure_logsize(label: str, params: Dict[str, Any]) -> Dict[str, Any]:
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


def _nondecreasing(values: List[float]) -> bool:
    return values == sorted(values)


def _less(metric: str, a: str, b: str,
          factor: float = 1.0) -> Callable[[Points], bool]:
    """A claim predicate: variant ``a``'s metric < ``factor`` x ``b``'s."""
    return lambda p: p[a][metric] < factor * p[b][metric]


#: name (the ``repro ablation --which`` choice) -> row
EXPERIMENTS: Dict[str, Experiment] = {
    "table1": Experiment(
        "E1", "Table 1: application characteristics", "table1",
        _each(*PAPER_APPS), _measure_table1, render=_render_table1,
    ),
    "table2a": _table2("E2", "a", "fft3d", "3D-FFT"),
    "table2b": _table2("E3", "b", "mg", "MG"),
    "table2c": _table2("E4", "c", "shallow", "Shallow"),
    "table2d": _table2("E5", "d", "water", "Water"),
    "fig4": Experiment(
        "E6", "Figure 4: normalised failure-free execution time", "fig4",
        _each(*PAPER_APPS), _measure_fig4,
        (
            Claim("CCL's bar sits between 1.0 and ML's on every app",
                  _every(lambda m: 1.0 <= m["sound"].normalized_time("ccl")
                         < m["sound"].normalized_time("ml"))),
            Claim("CCL's overhead < 10 % on every app (paper: 1-6 %)",
                  _every(lambda m: m["sound"].normalized_time("ccl") < 1.10)),
        ),
        _render_fig4,
    ),
    "fig5": Experiment(
        "E7", "Figure 5: normalised crash recovery time", "fig5",
        _each(*PAPER_APPS), _measure_fig5,
        (
            Claim("ML and CCL recovery both beat re-execution on every app",
                  _every(lambda m: m["rec"].normalized("ml") < 1.0
                         and m["rec"].normalized("ccl") < 1.0)),
            Claim("every recovery is bit-exact",
                  _every(lambda m: m["rec"].ml.ok and m["rec"].ccl.ok)),
        ),
        _render_fig5,
    ),
    "overlap": Experiment(
        "A1", "CCL flush/communication overlap (3D-FFT)",
        "ablation_overlap", _overlap_variants, _measure_overlap,
        (Claim("the overlap lowers CCL's execution time",
               _less("exec_s", "ccl+overlap", "ccl-no-overlap")),),
    ),
    "disk": Experiment(
        "A2", "disk speed vs logging overhead (MG)", "ablation_disk",
        _disk_variants, _measure_disk,
        (Claim("a slower disk costs ML more overhead than CCL",
               lambda p: _spread(p, "ml_overhead_pct")
               > _spread(p, "ccl_overhead_pct")),),
    ),
    "pagesize": Experiment(
        "A3", "page size vs traffic and log ratio (3D-FFT)",
        "ablation_pagesize", _pagesize_variants, _measure_pagesize,
        (
            Claim("16 KB pages fault less than 1 KB pages",
                  _less("page_faults", "16384B", "1024B")),
            Claim("the CCL/ML log ratio falls from 1 KB to 16 KB pages",
                  _less("ccl_over_ml_pct", "16384B", "1024B")),
        ),
    ),
    "home": Experiment(
        "A4", "home assignment policy (SOR)", "ablation_home",
        _each("round_robin", "aligned"), _measure_home,
        (
            Claim("writer-aligned homes create < half the diffs",
                  _less("diffs", "aligned", "round_robin", 0.5)),
            Claim("writer-aligned homes run faster",
                  _less("exec_s", "aligned", "round_robin")),
        ),
    ),
    "failpoint": Experiment(
        "A5", "crash point vs CCL recovery time (3D-FFT)",
        "ablation_failpoint", _failpoint_variants, _measure_failpoint,
        (
            Claim("recovery time grows with the crash point",
                  lambda p: _nondecreasing([m["recovery_s"]
                                            for m in p.values()])),
            Claim("recovery from the last seal beats re-execution",
                  lambda p: p["100%"]["vs_reexec"] < 1.0),
        ),
    ),
    "multifailure": Experiment(
        "X2", "concurrent multi-failure CCL recovery (3D-FFT)",
        "extension_multifailure", _multifailure_variants,
        _measure_multifailure,
        (
            Claim("4 concurrent victims take < 4x one victim's time",
                  _less("recovery_s", "4 victim(s)", "1 victim(s)", 4)),
            Claim("every victim set recovers faster than re-execution",
                  _every(lambda m: m["vs_reexec"] < 1.0)),
        ),
    ),
    "adaptive": Experiment(
        "X4", "static CCL vs static ML vs adaptive hybrid (budget = "
        "1.2x better static recovery)", "extension_adaptive",
        _each(*PAPER_APPS), _measure_adaptive,
        (Claim("adaptive recovery meets its budget on every app",
               _every(lambda m: m["budget_met"] == 1.0)),),
    ),
    "replication": Experiment(
        "X5", "quorum replication factor vs overhead and replay-free "
        "failover recovery (overheads vs k=1)", "extension_replication",
        _each(*PAPER_APPS), _measure_replication,
        (
            Claim("failover at k=2 and k=3 recovers faster than replay",
                  _every(lambda m: max(m["rec_r2_ms"], m["rec_r3_ms"])
                         < m["rec_replay_ms"])),
            Claim("k=3 costs more failure-free overhead than k=2",
                  _every(lambda m: m["oh_r3_pct"] > m["oh_r2_pct"])),
        ),
    ),
    "logsize": Experiment(
        "X6", "live log size vs checkpoint-driven truncation (SHALLOW/ML)",
        "extension_logsize", _logsize_variants, _measure_logsize,
        (
            Claim("every variant recovers bit-exactly",
                  _every(lambda m: m["ok"] == 1.0)),
            Claim("the untruncated live log grows with run length",
                  _less("live_log_kb", "s4/none", "s16/none")),
            Claim("truncation holds the live log within 1 % of its size "
                  "at 4 steps", _less("live_log_kb", "s16/ck4", "s4/ck4", 1.01)),
        ),
    ),
}
