"""The ``repro query`` / ``repro explain`` commands.

Two entry points over the columnar analytics layer
(:mod:`repro.obs.analytics` / :mod:`repro.obs.explain`):

* ``repro query <run> [--report locks|pages|phases|flows|all]`` -- run
  the built-in aggregation reports over a run's columnar trace index
  (built and cached on first use); with no run argument, records a
  fresh traced run of ``--apps [0]`` first and writes its bundle;
* ``repro explain <runA> <runB>`` -- attribute the wall-clock delta
  between two run bundles to protocol phases, spans, and counters;
  ``repro explain A B --from-history`` instead diffs two entries of
  ``benchmark_results/history.jsonl`` by integer index (argparse eats
  leading-dash tokens, so count from the front: with N entries,
  ``N-2 N-1`` is "what changed in the last perf run").
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..config import ClusterConfig
from ..jsonio import json_records, read_text
from ..obs import analytics
from ..obs.artifacts import config_dict, load_bundle, result_summary, write_bundle
from ..obs.console import get_console
from ..obs.explain import explain_history, explain_manifests, render_explain
from ..obs.metrics import MetricsRegistry

__all__ = ["run_query", "run_explain"]


def _bundle_dir(path: str) -> Path:
    """Normalise a bundle dir / manifest / trace path to the directory."""
    p = Path(path)
    return p.parent if p.is_file() else p


def _record_query_bundle(args, config: ClusterConfig) -> str:
    """Record one traced run and write its bundle; returns the dir."""
    from .obscmd import _record_traced

    app = args.apps[0]
    result, tracer = _record_traced(app, args.protocol, config, args.scale)
    manifest = {
        "command": "query",
        "config": config_dict(config),
        "results": [result_summary(result)],
        "metrics": MetricsRegistry.from_run(result, tracer).snapshot(),
    }
    bundle = write_bundle(args.runs_dir, manifest, tracer=tracer)
    get_console().info(
        f"recorded {app}/{args.protocol}@{args.scale} -> bundle {bundle}")
    return str(bundle)


def run_query(args, config: ClusterConfig) -> int:
    """Aggregate built-in reports over a run's columnar index."""
    con = get_console()
    source = args.trace
    if source is None:
        source = _record_query_bundle(args, config)

    ct = analytics.load_or_ingest(analytics.resolve_trace_path(source))
    con.info(f"columnar index: {ct.summary()} (from {ct.source})")

    names = (list(analytics.REPORTS) if args.report == "all"
             else [args.report])
    payload: Dict[str, Any] = {"source": source, "index": ct.summary(),
                               "index_source": ct.source}
    for name in names:
        doc = analytics.run_report(ct, name)
        payload[name] = doc
        con.result(analytics.render_report(doc))
        con.result("")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        con.info(f"report document written to {args.out}")
    con.emit("query", payload)
    return 0


def _history_entries(path: str) -> List[Dict[str, Any]]:
    entries: List[Dict[str, Any]] = []
    json_records(read_text(path), path, entries.append)
    return entries


def _maybe_columnar(path: str) -> Optional[analytics.ColumnarTrace]:
    trace_path = analytics.resolve_trace_path(path)
    if not Path(trace_path).exists():
        return None
    return analytics.load_or_ingest(trace_path)


def run_explain(args) -> int:
    """Attribute the delta between two runs or two history entries."""
    con = get_console()
    if args.trace is None or args.trace2 is None:
        con.error("explain needs two runs: repro explain A B "
                  "(or --from-history A B with integer indices)")
        return 2

    if args.from_history:
        entries = _history_entries(args.history)
        if not entries:
            con.error(f"history {args.history} is empty")
            return 2
        try:
            ia, ib = int(args.trace), int(args.trace2)
            ea, eb = entries[ia], entries[ib]
        except (ValueError, IndexError):
            con.error(f"--from-history wants two indices into the "
                      f"{len(entries)}-entry history (e.g. "
                      f"{max(0, len(entries) - 2)} {len(entries) - 1})")
            return 2
        doc = explain_history(ea, eb)
    else:
        doc = explain_manifests(
            load_bundle(args.trace), load_bundle(args.trace2),
            ct_a=_maybe_columnar(args.trace),
            ct_b=_maybe_columnar(args.trace2),
        )
    con.result(render_explain(doc))
    con.emit("explain", doc)
    return 0
