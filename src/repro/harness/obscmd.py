"""The ``repro timeline`` / ``critical-path`` / ``compare`` commands.

Three entry points over the telemetry layer (:mod:`repro.obs`):

* ``repro timeline <run>`` -- export a Chrome trace-event / Perfetto
  JSON timeline from a run bundle (``runs/<id>``), a saved
  ``trace.jsonl``, or a fresh traced run of ``--apps``;
* ``repro critical-path [<run>]`` -- extract the causal critical path
  and report the flush/communication overlap fraction (the paper's CCL
  claim, measured per run);
* ``repro compare A B`` -- diff two run bundles' numeric results.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Tuple

from ..config import ClusterConfig
from ..errors import HarnessError
from ..obs import (
    chrome_trace,
    compare_bundles,
    critical_path,
    flush_overlap,
    get_console,
    load_bundle,
    render_compare,
    render_overlap,
    summarize_path,
    validate_chrome_trace,
    write_bundle,
)
from ..obs.artifacts import config_dict, result_summary
from ..obs.critical import render_path
from ..obs.metrics import MetricsRegistry
from ..sim.trace import Tracer

__all__ = ["run_timeline", "run_critical_path", "run_compare"]


def _load_tracer(path: str) -> Tracer:
    """A tracer from a bundle dir, a manifest path, or a JSONL trace."""
    p = Path(path)
    if p.name == "manifest.json":
        p = p.parent
    if p.is_dir():
        manifest = load_bundle(str(p))
        trace_file = manifest.get("trace_file")
        if trace_file is None:
            raise HarnessError(f"bundle {p} has no recorded trace")
        p = p / trace_file
    return Tracer.load(str(p))


def _record_traced(
    app: str, protocol: str, config: ClusterConfig, scale: str
) -> Tuple[Any, Tracer]:
    """One traced run of ``app`` under ``protocol``."""
    from ..analysis.sanitize import traced
    from .runner import run_application

    with traced():
        result, system = run_application(app, protocol, config, scale)
    return result, system.tracer


# ----------------------------------------------------------------------
def run_timeline(args, config: ClusterConfig) -> int:
    """Export a Perfetto-loadable timeline; returns exit code."""
    con = get_console()
    if args.trace is not None:
        tracer = _load_tracer(args.trace)
        source = args.trace
        default_out = (
            str(Path(args.trace) / "timeline.json")
            if Path(args.trace).is_dir() else "timeline.json"
        )
    else:
        app = args.apps[0]
        result, tracer = _record_traced(app, args.protocol, config, args.scale)
        source = f"{app}/{args.protocol}@{args.scale}"
        default_out = "timeline.json"
        if not args.no_artifacts:
            manifest = {
                "command": "timeline",
                "config": config_dict(config),
                "results": [result_summary(result)],
                "metrics": MetricsRegistry.from_run(result, tracer).snapshot(),
            }
            bundle = write_bundle(args.runs_dir, manifest, tracer=tracer,
                                  timeline=chrome_trace(tracer))
            con.info(f"run bundle: {bundle}")
            default_out = str(bundle / "timeline.json")

    doc = chrome_trace(tracer)
    problems = validate_chrome_trace(doc)
    out = args.out or default_out
    with open(out, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
    con.result(
        f"timeline written to {out}: {len(doc['traceEvents'])} trace events "
        f"({len(tracer.spans)} spans, {len(tracer.edges)} edges) from {source}"
    )
    con.emit("timeline", {"out": out, "events": len(doc["traceEvents"]),
                          "problems": problems})
    if problems:
        con.error(f"schema problems: {problems[:5]}")
        return 1
    con.result("schema check: ok (load it at https://ui.perfetto.dev)")
    return 0


# ----------------------------------------------------------------------
def _report_one(
    label: str, tracer: Tracer, con, payload: dict, protocol: str
) -> None:
    path = critical_path(tracer)
    con.result(f"== {label} ==")
    con.result(render_path(path, limit=args_limit(path)))
    overlap = flush_overlap(tracer)
    con.result(render_overlap(overlap, protocol))
    con.result("")
    payload[label] = {
        "by_cat": summarize_path(path),
        "segments": len(path),
        "overlap_fraction": overlap.overlap_fraction,
        "flush_s": overlap.total_flush_s,
        "hidden_s": overlap.hidden_s,
    }


def args_limit(path) -> int:
    """Show full short paths, tails of long ones."""
    return 0 if len(path) <= 20 else 12


def run_critical_path(args, config: ClusterConfig) -> int:
    """Critical-path + flush-overlap report; returns exit code."""
    con = get_console()
    payload: dict = {}
    if args.trace is not None:
        tracer = _load_tracer(args.trace)
        _report_one(args.trace, tracer, con, payload, args.protocol)
    else:
        summaries = []
        overlaps = {}
        for app in args.apps:
            result, tracer = _record_traced(app, args.protocol, config,
                                            args.scale)
            label = f"{app}/{args.protocol}@{args.scale}"
            _report_one(label, tracer, con, payload, args.protocol)
            summaries.append(result_summary(result))
            overlaps[app] = payload[label]["overlap_fraction"]
        if not args.no_artifacts:
            manifest = {
                "command": "critical-path",
                "config": config_dict(config),
                "results": summaries,
                "overlap": overlaps,
            }
            bundle = write_bundle(args.runs_dir, manifest)
            con.info(f"run bundle: {bundle}")
    con.emit("critical_path", payload)
    return 0


# ----------------------------------------------------------------------
def run_compare(args) -> int:
    """Diff two run bundles; returns exit code."""
    con = get_console()
    if args.trace is None or args.trace2 is None:
        con.error("compare needs two run bundles: repro compare A B")
        return 2
    cmp = compare_bundles(load_bundle(args.trace), load_bundle(args.trace2))
    con.result(render_compare(cmp))
    con.emit("compare", cmp)
    return 0
