"""Perf-regression attribution: ``repro explain A B``.

Given two runs -- manifest bundles under ``runs/``, or two entries of
the committed perf trajectory ``benchmark_results/history.jsonl`` --
attribute the wall-clock / throughput delta to components instead of
reporting a bare number:

* **bundle mode** (:func:`explain_manifests`): per (app, protocol) pair
  present in both manifests, split the ``total_time`` delta over the
  protocol **phase** breakdown (compute / fault / sync / diff /
  log_flush ...), rank phases by contribution, and list the counter
  movements behind them; with columnar traces available, also rank span
  *self-time* deltas by span name (``barrier_wait``, ``page_fault``,
  ``log_flush`` ...);
* **history mode** (:func:`explain_history`): headline events/s delta
  plus ranked kernel ns/op and app wall-time movements between two
  trajectory entries.

The output is a JSON-safe document; :func:`render_explain` renders the
ranked table the CLI and the CI perf gate print.  Attribution is
arithmetic, not magic: a phase's *share* is its delta over the summed
absolute phase deltas, so the top row answers "where did the time go".
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "explain_manifests",
    "explain_history",
    "render_explain",
]


def _label(manifest: Mapping[str, Any]) -> Dict[str, Any]:
    """Identification block for one side of the comparison."""
    prov = manifest.get("provenance") or {}
    return {
        "run_id": manifest.get("run_id", "?"),
        "git": prov.get("git_sha") or manifest.get("git_rev", "?"),
        "created": manifest.get("created"),
        "command": manifest.get("command"),
    }


def _delta_rows(da: Mapping[str, float], db: Mapping[str, float],
                top: int = 0, shared_only: bool = False) -> List[Dict[str, Any]]:
    """Ranked per-key deltas between two numeric dicts.

    ``share`` is each key's fraction of the summed absolute movement, so
    shares add to ~1 and the first row is the dominant contributor.
    With ``shared_only`` keys missing on either side are dropped instead
    of read as zero -- a trajectory entry that simply didn't record a
    metric family is not a 100% regression of it.
    """
    keys = sorted(set(da) & set(db) if shared_only else set(da) | set(db))
    rows = []
    for key in keys:
        va, vb = float(da.get(key, 0.0)), float(db.get(key, 0.0))
        if vb == va:
            continue  # attribution only lists movement
        rows.append({"key": key, "a": va, "b": vb, "delta": vb - va})
    total_abs = sum(abs(r["delta"]) for r in rows)
    for r in rows:
        r["share"] = abs(r["delta"]) / total_abs if total_abs else 0.0
        r["pct"] = (r["delta"] / r["a"]) if r["a"] else None
    rows.sort(key=lambda r: (-abs(r["delta"]), r["key"]))
    return rows[:top] if top else rows


def _result_key(res: Any) -> Optional[Tuple[str, str]]:
    if isinstance(res, dict) and "app" in res and "protocol" in res:
        return str(res["app"]), str(res["protocol"])
    return None


def _result_index(manifest: Mapping[str, Any]) -> Dict[Tuple[str, str], Any]:
    out: Dict[Tuple[str, str], Any] = {}
    for res in manifest.get("results") or []:
        key = _result_key(res)
        if key is not None:
            out[key] = res
    return out


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
            key = _result_key(item)
            tag = f"{key[0]}/{key[1]}" if key else str(i)
            out.update(_numeric_leaves(item, f"{prefix}[{tag}]"))
    return out


#: Result fields the headline, phase and counter rows already attribute.
_ATTRIBUTED = ("total_time", "time", "counters")


def _leaf_rows(a: Mapping[str, Any], b: Mapping[str, Any],
               shared: List[Tuple[str, str]]) -> List[Dict[str, Any]]:
    """Every other numeric leaf of ``results``/``metrics``/``overlap``
    that moved or exists on one side only (no ``delta`` then)."""
    def leaves(manifest: Mapping[str, Any]) -> Dict[str, float]:
        results = [{k: v for k, v in res.items() if k not in _ATTRIBUTED}
                   if _result_key(res) in shared else res
                   for res in manifest.get("results") or []]
        return _numeric_leaves({"results": results,
                                "metrics": manifest.get("metrics"),
                                "overlap": manifest.get("overlap")})

    la, lb = leaves(a), leaves(b)
    rows = []
    for key in sorted(set(la) | set(lb)):
        va, vb = la.get(key), lb.get(key)
        if va != vb:
            row: Dict[str, Any] = {"key": key, "a": va, "b": vb}
            if va is not None and vb is not None:
                row["delta"] = vb - va
            rows.append(row)
    return rows


def _span_self_times(ct: Any) -> Dict[str, float]:
    """Per-span-name self time of one columnar trace (empty if None)."""
    if ct is None:
        return {}
    from .analytics import report_phases

    doc = report_phases(ct, top=len(ct.strings))  # every span name
    return {row["name"]: row["self_time"] for row in doc["by_name"]}


def explain_manifests(
    a: Mapping[str, Any],
    b: Mapping[str, Any],
    ct_a: Any = None,
    ct_b: Any = None,
) -> Dict[str, Any]:
    """Attribute the A -> B delta between two run manifests."""
    ia, ib = _result_index(a), _result_index(b)
    shared = sorted(set(ia) & set(ib))
    headline: List[Dict[str, Any]] = []
    phases_a: Dict[str, float] = {}
    phases_b: Dict[str, float] = {}
    counters_a: Dict[str, float] = {}
    counters_b: Dict[str, float] = {}
    for key in shared:
        ra, rb = ia[key], ib[key]
        ta, tb = float(ra.get("total_time", 0.0)), float(rb.get("total_time", 0.0))
        headline.append({
            "key": f"{key[0]}/{key[1]} total_time",
            "a": ta, "b": tb, "delta": tb - ta,
            "pct": (tb - ta) / ta if ta else None,
        })
        for dst, src in ((phases_a, ra), (phases_b, rb)):
            for cat, sec in (src.get("time") or {}).items():
                dst[cat] = dst.get(cat, 0.0) + float(sec)
        for dst, src in ((counters_a, ra), (counters_b, rb)):
            for cnt, val in (src.get("counters") or {}).items():
                dst[cnt] = dst.get(cnt, 0.0) + float(val)

    doc: Dict[str, Any] = {
        "explain": "runs",
        "a": _label(a),
        "b": _label(b),
        "shared_results": [f"{app}/{proto}" for app, proto in shared],
        "headline": headline,
        "phases": _delta_rows(phases_a, phases_b),
        "counters": _delta_rows(counters_a, counters_b),
        "leaves": _leaf_rows(a, b, shared),
    }
    spans_a, spans_b = _span_self_times(ct_a), _span_self_times(ct_b)
    if spans_a or spans_b:
        doc["spans"] = _delta_rows(spans_a, spans_b)
    return doc


def explain_history(
    ea: Mapping[str, Any],
    eb: Mapping[str, Any],
    top: int = 10,
) -> Dict[str, Any]:
    """Attribute the delta between two perf-trajectory entries."""
    headline: List[Dict[str, Any]] = []
    eps_a, eps_b = ea.get("sim_events_per_sec"), eb.get("sim_events_per_sec")
    if eps_a or eps_b:
        va, vb = float(eps_a or 0.0), float(eps_b or 0.0)
        headline.append({
            "key": "sim_events_per_sec", "a": va, "b": vb,
            "delta": vb - va, "pct": (vb - va) / va if va else None,
        })
    return {
        "explain": "history",
        "a": {"run_id": ea.get("ts", "?"), "git": ea.get("git_rev", "?")},
        "b": {"run_id": eb.get("ts", "?"), "git": eb.get("git_rev", "?")},
        "headline": headline,
        "kernels": _delta_rows(ea.get("kernels_ns_per_op") or {},
                               eb.get("kernels_ns_per_op") or {},
                               top=top, shared_only=True),
        "apps_wall_s": _delta_rows(ea.get("apps_wall_s") or {},
                                   eb.get("apps_wall_s") or {},
                                   top=top, shared_only=True),
    }


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------

def _fmt(value: float) -> str:
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    return f"{value:.4g}"


def _render_rows(title: str, rows: List[Dict[str, Any]],
                 unit: str = "") -> List[str]:
    if not rows:
        return []
    lines = [f"  {title}:"]
    width = max(len(str(r["key"])) for r in rows)
    for i, r in enumerate(rows, 1):
        pct = "" if r.get("pct") is None else f" ({r['pct']:+.1%})"
        share = f"  share {r['share']:.0%}" if "share" in r else ""
        sign = "+" if r["delta"] >= 0 else ""
        lines.append(
            f"    #{i} {str(r['key']):<{width}}  "
            f"{_fmt(r['a'])} -> {_fmt(r['b'])}{unit}  "
            f"{sign}{_fmt(r['delta'])}{pct}{share}"
        )
    return lines


def _render_leaves(rows: List[Dict[str, Any]]) -> List[str]:
    if not rows:
        return []
    lines = ["  other manifest leaves:"]
    for r in rows:
        fa = "-" if r["a"] is None else _fmt(r["a"])
        fb = "-" if r["b"] is None else _fmt(r["b"])
        delta = r.get("delta")
        extra = "" if delta is None else f"  {'+' if delta >= 0 else ''}{_fmt(delta)}"
        lines.append(f"    {r['key']}: {fa} -> {fb}{extra}")
    return lines


def render_explain(doc: Dict[str, Any]) -> str:
    """Human-readable ranked attribution table."""
    a, b = doc["a"], doc["b"]
    lines = [f"explain: A={a.get('run_id')} ({a.get('git')})  "
             f"B={b.get('run_id')} ({b.get('git')})"]
    for r in doc.get("headline", []):
        pct = "" if r.get("pct") is None else f" ({r['pct']:+.1%})"
        lines.append(f"  {r['key']}: {_fmt(r['a'])} -> {_fmt(r['b'])}{pct}")
    if doc.get("explain") == "runs":
        if not doc.get("shared_results"):
            lines.append("  no (app, protocol) results in common -- "
                         "nothing to attribute")
        lines += _render_rows("phase attribution (virtual s)", doc.get("phases", []))
        lines += _render_rows("span self-time attribution (virtual s)",
                              doc.get("spans", []))
        lines += _render_rows("counter movements", doc.get("counters", []))
        lines += _render_leaves(doc.get("leaves", []))
        if not any(r["delta"] for r in doc["headline"]) and not any(
                doc.get(k) for k in ("phases", "spans", "counters", "leaves")):
            lines.append("  no differences")
    else:
        lines += _render_rows("kernel ns/op", doc.get("kernels", []))
        lines += _render_rows("app wall time (s)", doc.get("apps_wall_s", []))
    if len(lines) == 1:
        lines.append("  no comparable metrics")
    return "\n".join(lines)
