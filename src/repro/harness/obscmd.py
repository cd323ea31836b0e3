"""The run-bundle commands: ``timeline``, ``critical-path``, ``query``,
``explain``.

Four entry points over the telemetry layer (:mod:`repro.obs`):

* ``repro timeline <run>`` -- export a Chrome trace-event / Perfetto
  JSON timeline from a run bundle (``runs/<id>``), a saved
  ``trace.jsonl``, or a fresh traced run of ``--apps``;
* ``repro critical-path [<run>]`` -- extract the causal critical path
  and report the flush/communication overlap fraction (the paper's CCL
  claim, measured per run);
* ``repro query [<run>] [--report locks|pages|phases|flows|all]`` --
  run the built-in aggregation reports over a run's columnar view;
  with no run argument, records a fresh traced run of ``--apps[0]``;
* ``repro explain <runA> <runB>`` -- the run diff: attribute the
  wall-clock delta between two run bundles to protocol phases, spans
  and counters, and list every other manifest number that moved;
  ``repro explain A B --from-history`` instead diffs two entries of
  ``benchmark_results/history.jsonl`` by integer index (argparse eats
  leading-dash tokens, so count from the front: with N entries,
  ``N-2 N-1`` is "what changed in the last perf run").

A run argument is read by :func:`repro.obs.artifacts.load_trace`, the
one loader, and never written to; :func:`record_bundle` writes the
bundle of every command that records runs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..config import ClusterConfig
from ..jsonio import json_records, read_text
from ..obs import (
    chrome_trace,
    critical_path,
    flush_overlap,
    get_console,
    load_bundle,
    load_trace,
    render_overlap,
    summarize_path,
    validate_chrome_trace,
    write_bundle,
)
from ..obs.analytics import REPORTS, ColumnarTrace, render_report, run_report
from ..obs.artifacts import config_dict, result_summary
from ..obs.critical import render_path
from ..obs.explain import explain_history, explain_manifests, render_explain
from ..obs.metrics import MetricsRegistry
from ..sim.trace import Tracer

__all__ = ["record_bundle", "run_timeline", "run_critical_path",
           "run_query", "run_explain"]


def record_bundle(args, config: ClusterConfig, results: List[Dict[str, Any]],
                  tracer: Optional[Tracer] = None,
                  timeline: Optional[Dict[str, Any]] = None,
                  **extra: Any) -> Optional[Path]:
    """Write the run bundle of a command that recorded ``results`` on
    ``config``; returns its directory (None under ``--no-artifacts`` or
    with no results)."""
    if args.no_artifacts or not results:
        return None
    manifest: Dict[str, Any] = {
        "command": args.command,
        "scale": args.scale,
        "config": config_dict(config),
        "results": results,
        **extra,
    }
    bundle = write_bundle(args.runs_dir, manifest, tracer=tracer,
                          timeline=timeline)
    get_console().info(f"run bundle: {bundle}")
    return bundle


def _record_traced(args, config: ClusterConfig,
                   app: str) -> Tuple[Any, Tracer]:
    """One traced run of ``app`` on ``config`` under the command's
    protocol and scale."""
    from ..analysis.sanitize import traced
    from .runner import run_application

    with traced():
        result, system = run_application(app, args.protocol, config, args.scale)
    return result, system.tracer


# ----------------------------------------------------------------------
def run_timeline(args) -> int:
    """Export a Perfetto-loadable timeline; returns exit code."""
    con = get_console()
    if args.trace is not None:
        tracer = load_trace(args.trace)
        source = args.trace
        doc = chrome_trace(tracer)
        default_out = (
            str(Path(args.trace) / "timeline.json")
            if Path(args.trace).is_dir() else "timeline.json"
        )
    else:
        app = args.apps[0]
        config = ClusterConfig.ultra5(num_nodes=args.nodes)
        result, tracer = _record_traced(args, config, app)
        source = f"{app}/{args.protocol}@{args.scale}"
        doc = chrome_trace(tracer)
        bundle = record_bundle(
            args, config, [result_summary(result)], tracer=tracer, timeline=doc,
            metrics=MetricsRegistry.from_run(result, tracer).snapshot())
        default_out = str(bundle / "timeline.json") if bundle else "timeline.json"

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


def run_critical_path(args) -> int:
    """Critical-path + flush-overlap report; returns exit code."""
    con = get_console()
    payload: dict = {}
    if args.trace is not None:
        tracer = load_trace(args.trace)
        _report_one(args.trace, tracer, con, payload, args.protocol)
    else:
        config = ClusterConfig.ultra5(num_nodes=args.nodes)
        summaries = []
        overlaps = {}
        for app in args.apps:
            result, tracer = _record_traced(args, config, app)
            label = f"{app}/{args.protocol}@{args.scale}"
            _report_one(label, tracer, con, payload, args.protocol)
            summaries.append(result_summary(result))
            overlaps[app] = payload[label]["overlap_fraction"]
        record_bundle(args, config, summaries, overlap=overlaps)
    con.emit("critical_path", payload)
    return 0


# ----------------------------------------------------------------------
def run_query(args) -> int:
    """Aggregate built-in reports over a run's columnar view."""
    con = get_console()
    source = args.trace
    if source is None:
        app = args.apps[0]
        config = ClusterConfig.ultra5(num_nodes=args.nodes)
        result, tracer = _record_traced(args, config, app)
        source = f"{app}/{args.protocol}@{args.scale}"
        bundle = record_bundle(
            args, config, [result_summary(result)], tracer=tracer,
            metrics=MetricsRegistry.from_run(result, tracer).snapshot())
        if bundle is not None:
            source = str(bundle)
    else:
        tracer = load_trace(source)
    ct = ColumnarTrace.from_tracer(tracer)
    con.info(f"columnar index: {ct.summary()}")

    names = (list(REPORTS) if args.report == "all"
             else [args.report])
    payload: Dict[str, Any] = {"source": source, "index": ct.summary()}
    for name in names:
        doc = run_report(ct, name)
        payload[name] = doc
        con.result(render_report(doc))
        con.result("")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        con.info(f"report document written to {args.out}")
    con.emit("query", payload)
    return 0


# ----------------------------------------------------------------------
def _history_entries(path: str) -> List[Dict[str, Any]]:
    entries: List[Dict[str, Any]] = []
    json_records(read_text(path), path, entries.append)
    return entries


def _columnar(path: str, manifest: Dict[str, Any]) -> Any:
    """The columnar view of a bundle's trace (None when it has none)."""
    if manifest.get("trace_file") is None:
        return None
    return ColumnarTrace.from_tracer(load_trace(path))


def run_explain(args) -> int:
    """Diff two runs, or two history entries; returns exit code."""
    con = get_console()
    if args.from_history:
        entries = _history_entries(args.history)
        if not entries:
            con.error(f"history {args.history} is empty")
            return 2
        try:
            ia, ib = int(args.run_a), int(args.run_b)
            ea, eb = entries[ia], entries[ib]
        except (ValueError, IndexError):
            con.error(f"--from-history wants two indices into the "
                      f"{len(entries)}-entry history (e.g. "
                      f"{max(0, len(entries) - 2)} {len(entries) - 1})")
            return 2
        doc = explain_history(ea, eb)
    else:
        a, b = load_bundle(args.run_a), load_bundle(args.run_b)
        doc = explain_manifests(a, b, ct_a=_columnar(args.run_a, a),
                                ct_b=_columnar(args.run_b, b))
    con.result(render_explain(doc))
    con.emit("explain", doc)
    return 0
