"""Per-run artifact bundles: ``runs/<run_id>/manifest.json`` (+ trace).

Every harness invocation that produces results writes one bundle so
runs are comparable after the fact:

* ``manifest.json`` -- run id, creation time, git revision, the CLI
  command, the cluster configuration, per-run metric snapshots
  (:meth:`~repro.obs.metrics.MetricsRegistry.snapshot`), and headline
  numbers per (app, protocol);
* ``trace.jsonl`` -- the span/edge/event trace, when one was recorded;
* ``timeline.json`` -- the Perfetto export, when requested.

:func:`load_trace` is the one reader of a bundle's trace; ``repro
explain A B`` diffs two manifests.  Bundle writing is harness-side
plumbing: nothing here touches the deterministic simulator layer.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..errors import HarnessError
from ..jsonio import parse_json, read_text

if TYPE_CHECKING:
    from ..sim.trace import Tracer

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
    "load_trace",
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


def load_trace(path: str) -> "Tracer":
    """The recorded trace of a bundle dir, its ``manifest.json``, or a
    ``trace.jsonl``; a bundle whose manifest names no trace is refused."""
    from ..sim.trace import Tracer

    p = Path(path)
    if p.name == "manifest.json":
        p = p.parent
    if p.is_dir():
        trace_file = load_bundle(str(p)).get("trace_file")
        if trace_file is None:
            raise HarnessError(f"bundle {p} has no recorded trace")
        p = p / trace_file
    return Tracer.load(str(p))
