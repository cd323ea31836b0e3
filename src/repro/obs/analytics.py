"""Columnar trace analytics: struct-of-arrays tables over run traces.

:class:`ColumnarTrace` is a tracer's column store as numpy arrays -- the
spans, edges and event ``t, node, ev`` columns of
:attr:`repro.sim.trace.Tracer.columns`, its string table, and event
details flattened to fixed int columns -- so every aggregation is a
vectorised groupby running in milliseconds.  A recorded trace reaches
it through :func:`repro.obs.artifacts.load_trace`, the one loader, and
:meth:`ColumnarTrace.from_tracer`; nothing is written back.

Tables (missing int values are -1):

* ``events`` -- ``t, node, ev`` plus flattened detail columns
  ``lock, page, to, home, aux`` covering the protocol schema of
  :class:`repro.sim.trace.Ev`;
* ``spans`` -- ``parent, node, strand, name, cat, t0, t1, lock, page``
  (row index == span id, preserving the parent tree);
* ``edges`` -- ``src, dst, kind, size, ts, tr`` message hops;
* ``pagerows`` -- the multi-page ``diff_send``/``diff_apply`` events
  exploded to one ``t, node, ev, page, peer`` row per page, so per-page
  diff traffic aggregates without touching Python lists.

On top sit the built-in reports -- :func:`report_locks`,
:func:`report_pages`, :func:`report_phases`, :func:`report_flows` --
each returning a JSON-safe dict with a matching ``render_*`` for the
``repro query`` CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "StringTable",
    "ColumnarTrace",
    "report_locks",
    "report_pages",
    "report_phases",
    "report_flows",
    "REPORTS",
    "run_report",
    "render_report",
]

_EVENT_TABLE = ("t", "node", "ev", "lock", "page", "to", "home", "aux")
_SPAN_TABLE = ("parent", "node", "strand", "name", "cat", "t0", "t1",
               "lock", "page")
_PAGEROW_TABLE = ("t", "node", "ev", "page", "peer")


def _ints(values: Any) -> np.ndarray:
    """An int32 column of detail values; anything but an int32 int is -1."""
    return np.array([v if type(v) is int and -(1 << 31) <= v < 1 << 31 else -1
                     for v in values], dtype=np.int32)


#: Multi-page events exploded into ``pagerows``, with their peer's key;
#: the column a legacy scalar event's bare id fills.
_PAGE_PEERS = {"diff_send": "home", "diff_apply": "writer"}
_SCALAR_COLUMN = {"acquire": "lock", "release": "lock", "barrier": "aux",
                  "seal": "aux", "fault": "page"}


class StringTable:
    """Bidirectional string <-> int id lookup (a tracer's string table)."""

    def __init__(self, strings: Optional[Sequence[str]] = None):
        self.strings: List[str] = list(strings or [])
        self._ids: Dict[str, int] = {s: i for i, s in enumerate(self.strings)}

    def get(self, s: str) -> int:
        """The id of ``s``, or -1 if never interned (no mutation)."""
        return self._ids.get(s, -1)

    def lookup(self, i: int) -> str:
        """The string for id ``i`` ("?" for -1/out of range)."""
        return self.strings[i] if 0 <= i < len(self.strings) else "?"

    def __len__(self) -> int:
        return len(self.strings)


@dataclass(eq=False)
class ColumnarTrace:
    """Struct-of-arrays view of one run's trace."""

    strings: StringTable
    events: Dict[str, np.ndarray]
    spans: Dict[str, np.ndarray]
    edges: Dict[str, np.ndarray]
    pagerows: Dict[str, np.ndarray]

    # -- sizes ---------------------------------------------------------
    @property
    def num_events(self) -> int:
        return int(self.events["t"].shape[0])

    @property
    def num_spans(self) -> int:
        return int(self.spans["t0"].shape[0])

    @property
    def num_edges(self) -> int:
        return int(self.edges["ts"].shape[0])

    def summary(self) -> Dict[str, int]:
        """Row counts per table (for logs and tests)."""
        return {"events": self.num_events, "spans": self.num_spans,
                "edges": self.num_edges, "pagerows": int(self.pagerows["t"].shape[0]),
                "strings": len(self.strings)}

    # -- construction --------------------------------------------------
    @classmethod
    def from_tracer(cls, tracer: Any) -> "ColumnarTrace":
        """The columnar view of a tracer's store: its columns (copied, one
        ``memcpy`` each), plus the detail columns the reports group by."""
        cols, names = tracer.columns, tracer.strings
        tables = {t: {c: np.array(col) for c, col in cols[t].items()} for t in cols}
        spans = [d if type(d) is dict else {} for d in tracer.details("spans")]
        tables["spans"].update((c, _ints([d.get(c) for d in spans])) for c in _SPAN_TABLE[7:])
        details = list(tracer.details("events"))
        events = [d if type(d) is dict else {} for d in details]
        for c in _EVENT_TABLE[3:7]:
            tables["events"][c] = _ints([d.get(c) for d in events])
        tables["events"]["aux"] = _ints([d.get("writer", d.get("requester", d.get(
            "index", d.get("episode")))) for d in events])
        pagerows: List[Tuple[Any, ...]] = []
        for row, (ev, d) in enumerate(zip(cols["events"]["ev"], details)):
            name = names[ev]
            if type(d) is not dict and name in _SCALAR_COLUMN:  # a legacy bare id
                tables["events"][_SCALAR_COLUMN[name]][row] = _ints([d])[0]
            elif name in _PAGE_PEERS and isinstance(events[row].get("pages"), (list, tuple)):
                pagerows.extend((cols["events"]["t"][row], cols["events"]["node"][row], ev,
                                 p, d.get(_PAGE_PEERS[name])) for p in d["pages"])
        tables["pagerows"] = {c: np.array(v, np.float64) if c == "t" else _ints(v) for c, v
                              in zip(_PAGEROW_TABLE, zip(*pagerows) if pagerows else [()] * 5)}
        return cls(StringTable(names), tables["events"], tables["spans"],
                   tables["edges"], tables["pagerows"])


# ----------------------------------------------------------------------
# groupby helpers
# ----------------------------------------------------------------------

def _group_sum(keys: np.ndarray, values: np.ndarray) -> Dict[int, float]:
    """Sum ``values`` per distinct key (vectorised)."""
    if keys.size == 0:
        return {}
    uniq, inv = np.unique(keys, return_inverse=True)
    sums = np.bincount(inv, weights=values, minlength=uniq.size)
    return {int(k): float(v) for k, v in zip(uniq, sums)}


def _group_count(keys: np.ndarray) -> Dict[int, int]:
    """Row count per distinct key."""
    if keys.size == 0:
        return {}
    uniq, counts = np.unique(keys, return_counts=True)
    return {int(k): int(n) for k, n in zip(uniq, counts)}


# ----------------------------------------------------------------------
# built-in reports
# ----------------------------------------------------------------------

def report_locks(ct: ColumnarTrace, top: int = 10,
                 chain_len: int = 12) -> Dict[str, Any]:
    """Per-lock contention profile: wait-time distribution + holder chain.

    Wait times come from the ``lock_wait`` spans (one per queued
    acquire); holder chains from the manager's ``lock_grant`` events in
    grant order.
    """
    sp = ct.spans
    wait_id = ct.strings.get("lock_wait")
    closed = (sp["name"] == wait_id) & (sp["t1"] >= 0) & (sp["lock"] >= 0)
    locks = sp["lock"][closed]
    waits = (sp["t1"] - sp["t0"])[closed]

    ev = ct.events
    grant_id = ct.strings.get("lock_grant")
    grants = ev["ev"] == grant_id
    g_lock, g_to = ev["lock"][grants], ev["to"][grants]

    rows: List[Dict[str, Any]] = []
    totals = _group_sum(locks, waits)
    counts = _group_count(locks)
    all_locks = sorted(set(totals) | set(_group_count(g_lock)))
    for lock in all_locks:
        mask = locks == lock
        w = waits[mask]
        chain = g_to[g_lock == lock]
        rows.append({
            "lock": lock,
            "acquires": int((g_lock == lock).sum()),
            "queued_waits": counts.get(lock, 0),
            "wait_total": totals.get(lock, 0.0),
            "wait_mean": float(w.mean()) if w.size else 0.0,
            "wait_max": float(w.max()) if w.size else 0.0,
            "wait_p99": float(np.quantile(w, 0.99)) if w.size else 0.0,
            "holder_chain": [int(h) for h in chain[:chain_len]],
        })
    rows.sort(key=lambda r: (-r["wait_total"], r["lock"]))
    return {
        "report": "locks",
        "total_wait": float(waits.sum()) if waits.size else 0.0,
        "locks": rows[:top],
        "num_locks": len(rows),
    }


def report_pages(ct: ColumnarTrace, top: int = 10) -> Dict[str, Any]:
    """Hot-page / home heatmap: fetch and diff traffic per page.

    Combines single-page ``page_fetch``/``page_serve``/``fault`` events
    with the exploded per-page diff rows, and summarises per-home load
    (fetches served + diffs applied at each home) with an imbalance
    factor ``max/mean``.
    """
    ev = ct.events
    fetch_id = ct.strings.get("page_fetch")
    fault_id = ct.strings.get("fault")
    pr = ct.pagerows
    send_id = ct.strings.get("diff_send")
    apply_id = ct.strings.get("diff_apply")

    fetch_rows = ev["ev"] == fetch_id
    fetches = _group_count(ev["page"][fetch_rows])
    faults = _group_count(ev["page"][ev["ev"] == fault_id])
    diff_sends = _group_count(pr["page"][pr["ev"] == send_id])
    diff_applies = _group_count(pr["page"][pr["ev"] == apply_id])

    pages = sorted(set(fetches) | set(faults) | set(diff_sends)
                   | set(diff_applies))
    page_home: Dict[int, int] = {}
    fp, fh = ev["page"][fetch_rows], ev["home"][fetch_rows]
    for p, h in zip(fp.tolist(), fh.tolist()):
        if h >= 0:
            page_home.setdefault(p, h)
    sp, sh = pr["page"][pr["ev"] == send_id], pr["peer"][pr["ev"] == send_id]
    for p, h in zip(sp.tolist(), sh.tolist()):
        if h >= 0:
            page_home.setdefault(p, h)

    rows = []
    for page in pages:
        if page < 0:
            continue
        rows.append({
            "page": page,
            "home": page_home.get(page, -1),
            "fetches": fetches.get(page, 0),
            "faults": faults.get(page, 0),
            "diff_sends": diff_sends.get(page, 0),
            "diff_applies": diff_applies.get(page, 0),
        })
    rows.sort(key=lambda r: (-(r["fetches"] + r["diff_sends"]), r["page"]))

    home_load: Dict[int, int] = {}
    for h, n in _group_count(ev["home"][fetch_rows]).items():
        if h >= 0:
            home_load[h] = home_load.get(h, 0) + n
    apply_rows = pr["ev"] == apply_id
    for h, n in _group_count(pr["node"][apply_rows]).items():
        if h >= 0:
            home_load[h] = home_load.get(h, 0) + n
    loads = list(home_load.values())
    mean_load = (sum(loads) / len(loads)) if loads else 0.0
    return {
        "report": "pages",
        "pages": rows[:top],
        "num_pages": len(rows),
        "home_load": {str(h): n for h, n in sorted(home_load.items())},
        "home_imbalance": (max(loads) / mean_load) if mean_load else 0.0,
    }


def report_phases(ct: ColumnarTrace, top: int = 12) -> Dict[str, Any]:
    """Per-node protocol-phase breakdown by span *self time*.

    Self time is a span's duration minus its closed children's
    durations, so nested phases (a ``log_flush`` inside an ``acquire``)
    are not double counted.  Grouped per ``node x category`` and per
    span name across the cluster.
    """
    sp = ct.spans
    closed = sp["t1"] >= 0
    dur = np.where(closed, sp["t1"] - sp["t0"], 0.0)
    self_time = dur.copy()
    parents = sp["parent"]
    child = closed & (parents >= 0)
    if child.any():
        np.subtract.at(self_time, parents[child], dur[child])
    self_time = np.maximum(self_time, 0.0)

    per_node: Dict[str, Dict[str, float]] = {}
    nodes = np.unique(sp["node"]) if sp["node"].size else np.array([], int)
    for node in nodes.tolist():
        mask = (sp["node"] == node) & closed
        cats = _group_sum(sp["cat"][mask], self_time[mask])
        per_node[str(node)] = {ct.strings.lookup(c): v
                               for c, v in sorted(cats.items())}

    by_name = _group_sum(sp["name"][closed], self_time[closed])
    name_rows = [{"name": ct.strings.lookup(n), "self_time": v,
                  "count": _group_count(sp["name"][closed]).get(n, 0)}
                 for n, v in by_name.items()]
    name_rows.sort(key=lambda r: (-r["self_time"], r["name"]))
    return {
        "report": "phases",
        "per_node": per_node,
        "by_name": name_rows[:top],
        "total_self_time": float(self_time[closed].sum()) if closed.any() else 0.0,
    }


def report_flows(ct: ColumnarTrace, top: int = 15) -> Dict[str, Any]:
    """src -> dst x message-kind flow matrix with latency and bytes."""
    ed = ct.edges
    n = ed["ts"].shape[0]
    if n == 0:
        return {"report": "flows", "flows": [], "num_messages": 0,
                "total_bytes": 0, "undelivered": 0}
    # composite key: (src, dst, kind) packed into one int64
    key = ((ed["src"].astype(np.int64) << 40)
           | (ed["dst"].astype(np.int64) << 20)
           | ed["kind"].astype(np.int64))
    uniq, inv = np.unique(key, return_inverse=True)
    counts = np.bincount(inv, minlength=uniq.size)
    bytes_ = np.bincount(inv, weights=ed["size"].astype(np.float64),
                         minlength=uniq.size)
    delivered = ed["tr"] >= 0
    lat_sum = np.bincount(inv, weights=np.where(delivered,
                                                ed["tr"] - ed["ts"], 0.0),
                          minlength=uniq.size)
    lat_n = np.bincount(inv, weights=delivered.astype(np.float64),
                        minlength=uniq.size)
    rows = []
    for i, k in enumerate(uniq.tolist()):
        src, dst, kind = (k >> 40) & 0xFFFFF, (k >> 20) & 0xFFFFF, k & 0xFFFFF
        rows.append({
            "src": int(src), "dst": int(dst),
            "kind": ct.strings.lookup(int(kind)),
            "count": int(counts[i]),
            "bytes": int(bytes_[i]),
            "mean_latency": float(lat_sum[i] / lat_n[i]) if lat_n[i] else 0.0,
        })
    rows.sort(key=lambda r: (-r["bytes"], r["src"], r["dst"], r["kind"]))
    return {
        "report": "flows",
        "flows": rows[:top],
        "num_messages": n,
        "total_bytes": int(ed["size"].sum()),
        "undelivered": int((~delivered).sum()),
    }


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------

def _fmt_s(seconds: float) -> str:
    """Compact seconds (ms/us below 1s)."""
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.1f}us"


def _render_locks(doc: Dict[str, Any]) -> str:
    lines = [f"lock contention  (total queued wait {_fmt_s(doc['total_wait'])}, "
             f"{doc['num_locks']} lock(s))"]
    if not doc["locks"]:
        lines.append("  no lock activity in trace")
    for r in doc["locks"]:
        chain = "->".join(str(h) for h in r["holder_chain"])
        lines.append(
            f"  lock {r['lock']:>4}: acquires={r['acquires']:<6} "
            f"queued={r['queued_waits']:<6} wait total={_fmt_s(r['wait_total'])} "
            f"mean={_fmt_s(r['wait_mean'])} p99={_fmt_s(r['wait_p99'])} "
            f"max={_fmt_s(r['wait_max'])}"
        )
        if chain:
            lines.append(f"            holders: {chain}"
                         + ("..." if r["acquires"] > len(r["holder_chain"]) else ""))
    return "\n".join(lines)


def _render_pages(doc: Dict[str, Any]) -> str:
    lines = [f"hot pages  ({doc['num_pages']} page(s) with traffic, "
             f"home imbalance x{doc['home_imbalance']:.2f})"]
    if not doc["pages"]:
        lines.append("  no page traffic in trace")
    for r in doc["pages"]:
        lines.append(
            f"  page {r['page']:>5} @home {r['home']:>2}: "
            f"fetches={r['fetches']:<6} faults={r['faults']:<6} "
            f"diff_sends={r['diff_sends']:<6} diff_applies={r['diff_applies']}"
        )
    if doc["home_load"]:
        load = "  ".join(f"home {h}: {n}" for h, n in doc["home_load"].items())
        lines.append(f"  home load (serves+applies): {load}")
    return "\n".join(lines)


def _render_phases(doc: Dict[str, Any]) -> str:
    lines = [f"protocol phases  (total self time "
             f"{_fmt_s(doc['total_self_time'])})"]
    for node, cats in doc["per_node"].items():
        parts = "  ".join(f"{c}={_fmt_s(v)}" for c, v in cats.items())
        lines.append(f"  node {node}: {parts}")
    if doc["by_name"]:
        lines.append("  top spans by self time:")
        for r in doc["by_name"]:
            lines.append(f"    {r['name']:<16} {_fmt_s(r['self_time']):>10} "
                         f"({r['count']} span(s))")
    else:
        lines.append("  no spans in trace (was tracing enabled?)")
    return "\n".join(lines)


def _render_flows(doc: Dict[str, Any]) -> str:
    lines = [f"message flows  ({doc['num_messages']} msgs, "
             f"{doc['total_bytes']} bytes, {doc['undelivered']} undelivered)"]
    if not doc["flows"]:
        lines.append("  no message edges in trace")
    for r in doc["flows"]:
        lines.append(
            f"  {r['src']:>2} -> {r['dst']:>2} {r['kind']:<14} "
            f"count={r['count']:<7} bytes={r['bytes']:<10} "
            f"mean latency={_fmt_s(r['mean_latency'])}"
        )
    return "\n".join(lines)


#: report name -> (aggregate, render) for the CLI and tests.
REPORTS: Dict[str, Tuple[Callable[[ColumnarTrace], Dict[str, Any]],
                         Callable[[Dict[str, Any]], str]]] = {
    "locks": (report_locks, _render_locks),
    "pages": (report_pages, _render_pages),
    "phases": (report_phases, _render_phases),
    "flows": (report_flows, _render_flows),
}


def run_report(ct: ColumnarTrace, name: str) -> Dict[str, Any]:
    """Aggregate one built-in report by name."""
    if name not in REPORTS:
        raise KeyError(f"unknown report {name!r}; "
                       f"choose from {sorted(REPORTS)}")
    return REPORTS[name][0](ct)


def render_report(doc: Dict[str, Any]) -> str:
    """Render a report dict produced by :func:`run_report`."""
    name = doc.get("report")
    if name not in REPORTS:
        raise KeyError(f"not a report document: {doc.get('report')!r}")
    return REPORTS[name][1](doc)
