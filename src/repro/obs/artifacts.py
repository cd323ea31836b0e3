"""Per-run artifact bundles: ``runs/<run_id>/manifest.json`` (+ trace).

Every harness invocation that produces results writes one bundle so
runs are comparable after the fact:

* ``manifest.json`` -- run id, creation time, git revision, the CLI
  command, the cluster configuration, per-run metric snapshots
  (:meth:`~repro.obs.metrics.MetricsRegistry.snapshot`), and headline
  numbers per (app, protocol);
* ``trace.jsonl`` -- the span/edge/event trace, when one was recorded;
* ``timeline.json`` -- the Perfetto export, when requested.

:func:`compare_bundles` diffs the numeric leaves of two manifests; the
CLI's ``repro compare A B`` renders it.  Bundle writing is harness-side
plumbing: nothing here touches the deterministic simulator layer.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..jsonio import parse_json, read_text

__all__ = [
    "MANIFEST_SCHEMA",
    "git_rev",
    "git_sha",
    "provenance",
    "new_run_id",
    "config_dict",
    "result_summary",
    "write_bundle",
    "load_bundle",
    "compare_bundles",
    "render_compare",
]

#: Manifest layout version.  2 added the ``provenance`` block (full git
#: SHA, CLI argv, seeds) and per-operation latency percentiles in
#: result summaries.
MANIFEST_SCHEMA = 2


def _rev_parse(args: List[str], cwd: Optional[str] = None) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", *args],
            capture_output=True, text=True, timeout=10, cwd=cwd,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def git_rev(cwd: Optional[str] = None) -> str:
    """Short git revision of the working tree ("unknown" outside git)."""
    return _rev_parse(["--short", "HEAD"], cwd)


def git_sha(cwd: Optional[str] = None) -> str:
    """Full git SHA of the working tree ("unknown" outside git)."""
    return _rev_parse(["HEAD"], cwd)


def provenance(seeds: Optional[List[int]] = None) -> Dict[str, Any]:
    """What produced this run: full git SHA, CLI argv, seeds.

    ``repro explain`` uses this block to label the two sides of a
    comparison, so every manifest should carry one (``write_bundle``
    adds it automatically).
    """
    import sys

    return {
        "git_sha": git_sha(),
        "argv": list(sys.argv),
        "seeds": list(seeds) if seeds is not None else [],
    }


def new_run_id(runs_dir: str, prefix: str = "run") -> str:
    """A unique, sortable id under ``runs_dir`` (timestamped)."""
    stamp = time.strftime("%Y%m%d-%H%M%S")
    base = f"{prefix}-{stamp}"
    run_id = base
    n = 1
    while (Path(runs_dir) / run_id).exists():
        run_id = f"{base}.{n}"
        n += 1
    return run_id


def config_dict(config: Any) -> Dict[str, Any]:
    """JSON-safe snapshot of a ClusterConfig (best effort)."""
    doc: Dict[str, Any] = {"repr": repr(config)}
    for attr in ("num_nodes", "page_size"):
        value = getattr(config, attr, None)
        if isinstance(value, (int, float)):
            doc[attr] = value
    return doc


def result_summary(result: Any) -> Dict[str, Any]:
    """Headline numbers of one RunResult for the manifest."""
    doc = {
        "app": result.app_name,
        "protocol": result.protocol,
        "total_time": result.total_time,
        "completed": result.completed,
        "network_bytes": result.network_bytes,
        "network_msgs": result.network_msgs,
        "num_flushes": result.num_flushes,
        "total_log_bytes": result.total_log_bytes,
        "counters": dict(result.aggregate.counters),
        "time": result.aggregate.time.as_dict(),
    }
    latency = getattr(result.aggregate, "latency", None)
    if latency:
        doc["latency"] = {op: rec.percentiles()
                          for op, rec in sorted(latency.items())}
    return doc


def write_bundle(
    runs_dir: str,
    manifest: Dict[str, Any],
    tracer: Any = None,
    timeline: Optional[Dict[str, Any]] = None,
    run_id: Optional[str] = None,
    seeds: Optional[List[int]] = None,
) -> Path:
    """Write one run bundle; returns the bundle directory."""
    run_id = run_id or new_run_id(runs_dir)
    bundle = Path(runs_dir) / run_id
    os.makedirs(bundle, exist_ok=True)
    manifest = dict(manifest)
    manifest.setdefault("run_id", run_id)
    manifest.setdefault("schema", MANIFEST_SCHEMA)
    manifest.setdefault("created", time.strftime("%Y-%m-%dT%H:%M:%S"))
    manifest.setdefault("git_rev", git_rev())
    manifest.setdefault("provenance", provenance(seeds=seeds))
    if tracer is not None and (tracer.spans or len(tracer) or tracer.edges):
        tracer.save(str(bundle / "trace.jsonl"))
        manifest["trace_file"] = "trace.jsonl"
    if timeline is not None:
        with open(bundle / "timeline.json", "w") as fh:
            json.dump(timeline, fh, separators=(",", ":"))
        manifest["timeline_file"] = "timeline.json"
    with open(bundle / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return bundle


def load_bundle(path: str) -> Dict[str, Any]:
    """Load a bundle's manifest (accepts the dir or the file itself)."""
    p = Path(path)
    if p.is_dir():
        p = p / "manifest.json"
    return parse_json(read_text(str(p)), str(p))


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------

def _numeric_leaves(doc: Any, prefix: str = "") -> Dict[str, float]:
    """Flatten every numeric leaf to a dotted path -> value map."""
    out: Dict[str, float] = {}
    if isinstance(doc, bool):
        return out
    if isinstance(doc, (int, float)):
        out[prefix or "value"] = float(doc)
    elif isinstance(doc, dict):
        for key in doc:
            sub = f"{prefix}.{key}" if prefix else str(key)
            out.update(_numeric_leaves(doc[key], sub))
    elif isinstance(doc, list):
        for i, item in enumerate(doc):
            # results lists are keyed by (app, protocol) when possible
            tag = str(i)
            if isinstance(item, dict) and "app" in item and "protocol" in item:
                tag = f"{item['app']}/{item['protocol']}"
            out.update(_numeric_leaves(item, f"{prefix}[{tag}]"))
    return out


def compare_bundles(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    """Diff the numeric leaves of two manifests' result sections."""
    keys = ("results", "metrics", "overlap")
    la = {k: v for key in keys
          for k, v in _numeric_leaves(a.get(key), key).items()}
    lb = {k: v for key in keys
          for k, v in _numeric_leaves(b.get(key), key).items()}
    rows: List[Dict[str, Any]] = []
    for key in sorted(set(la) | set(lb)):
        va, vb = la.get(key), lb.get(key)
        row: Dict[str, Any] = {"key": key, "a": va, "b": vb}
        if va is not None and vb is not None:
            row["delta"] = vb - va
            row["ratio"] = vb / va if va else None
        rows.append(row)
    return {
        "a": {"run_id": a.get("run_id"), "git_rev": a.get("git_rev")},
        "b": {"run_id": b.get("run_id"), "git_rev": b.get("git_rev")},
        "rows": rows,
    }


def render_compare(cmp: Dict[str, Any], only_changed: bool = True,
                   tolerance: float = 0.0) -> str:
    """Human-readable bundle diff table."""
    head_a = f"{cmp['a']['run_id']} ({cmp['a']['git_rev']})"
    head_b = f"{cmp['b']['run_id']} ({cmp['b']['git_rev']})"
    lines = [f"compare: A={head_a}  B={head_b}"]
    changed = 0
    for row in cmp["rows"]:
        va, vb, delta = row["a"], row["b"], row.get("delta")
        if only_changed and delta is not None and abs(delta) <= tolerance:
            continue
        changed += 1
        fa = "-" if va is None else f"{va:g}"
        fb = "-" if vb is None else f"{vb:g}"
        extra = ""
        if delta is not None:
            sign = "+" if delta >= 0 else ""
            extra = f"  ({sign}{delta:g})"
        lines.append(f"  {row['key']}: {fa} -> {fb}{extra}")
    if changed == 0:
        lines.append("  no differences")
    lines.append(f"{changed} differing metric(s), "
                 f"{len(cmp['rows'])} compared")
    return "\n".join(lines)
