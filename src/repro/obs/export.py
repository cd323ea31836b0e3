"""Chrome trace-event / Perfetto JSON export of a recorded trace.

:func:`chrome_trace` turns a :class:`~repro.sim.trace.Tracer`'s spans
and message edges into the Trace Event Format that ``chrome://tracing``
and https://ui.perfetto.dev load directly:

* every closed span becomes one complete (``ph: "X"``) event, with
  ``pid`` = node, ``tid`` = strand, timestamps in microseconds of
  virtual time;
* every delivered message edge becomes a flow-event pair
  (``ph: "s"`` at the send, ``ph: "f"`` at the receive), drawn by the
  viewers as an arrow between the sender's and receiver's timelines;
* metadata events name each process ``node N`` and each thread after
  its strand, so the timeline reads like the paper's figures.

:func:`validate_chrome_trace` is the schema check CI's obs-smoke job
and the tests run over the emitted document.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

__all__ = ["chrome_trace", "validate_chrome_trace", "write_chrome_trace"]

#: Stable thread ids per strand (new strands get ids after these).
STRAND_TIDS = {"main": 0, "server": 1, "disk": 2}


def _us(t: float) -> float:
    """Virtual seconds -> trace-event microseconds."""
    return t * 1e6


def chrome_trace(tracer: Any) -> Dict[str, Any]:
    """Build a Trace Event Format document from a recorded trace's span
    and edge columns."""
    sp, ed, strings = tracer.columns["spans"], tracer.columns["edges"], tracer.strings
    events: List[Dict[str, Any]] = []
    horizon = max((t for t in sp["t1"] if t >= 0), default=0.0)

    nodes = sorted(set(sp["node"]) | set(ed["src"]) | set(ed["dst"]))
    strands_by_node: Dict[int, set] = {n: set() for n in nodes}
    for node, strand in zip(sp["node"], sp["strand"]):
        strands_by_node[node].add(strings[strand])

    tids = dict(STRAND_TIDS)
    for node in nodes:
        events.append({
            "ph": "M", "name": "process_name", "pid": node, "tid": 0,
            "args": {"name": f"node {node}"},
        })
        for strand in sorted(strands_by_node[node] | {"main"}):
            tid = tids.setdefault(strand, len(tids))
            events.append({
                "ph": "M", "name": "thread_name", "pid": node, "tid": tid,
                "args": {"name": strand},
            })

    for sid, (parent, node, strand, name, cat, t0, t1, detail) in enumerate(zip(
            sp["parent"], sp["node"], sp["strand"], sp["name"], sp["cat"],
            sp["t0"], sp["t1"], tracer.details("spans"))):
        end = t1 if t1 >= 0 else horizon
        event: Dict[str, Any] = {
            "name": strings[name], "cat": strings[cat], "ph": "X",
            "ts": _us(t0), "dur": max(0.0, _us(end) - _us(t0)),
            "pid": node, "tid": tids.setdefault(strings[strand], len(tids)),
        }
        args = {"sid": sid, "parent": parent}
        if isinstance(detail, dict):
            args.update(detail)
        elif detail is not None:
            args["detail"] = detail
        event["args"] = args
        events.append(event)

    for eid, (src, dst, kind, size, ts, tr) in enumerate(zip(
            ed["src"], ed["dst"], ed["kind"], ed["size"], ed["ts"], ed["tr"])):
        if tr < 0:
            continue  # dropped or still in flight: nothing to draw
        common = {"name": strings[kind], "cat": "msg", "id": eid,
                  "args": {"size": size}}
        events.append({**common, "ph": "s", "ts": _us(ts),
                       "pid": src, "tid": tids["main"]})
        events.append({**common, "ph": "f", "bp": "e", "ts": _us(tr),
                       "pid": dst, "tid": tids["server"]})

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "spans": len(sp["t0"]),
            "edges": len(ed["ts"]),
            "events": len(tracer),
        },
    }


def validate_chrome_trace(doc: Any) -> List[str]:
    """Schema-check a trace document; returns problems (empty = valid)."""
    problems: List[str] = []
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        return ["document must be an object with a traceEvents list"]
    flow_starts: Dict[Any, int] = {}
    flow_ends: Dict[Any, int] = {}
    for i, ev in enumerate(doc["traceEvents"]):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in {"X", "M", "s", "f", "B", "E", "i", "C"}:
            problems.append(f"{where}: unknown ph {ph!r}")
            continue
        if not isinstance(ev.get("name"), str):
            problems.append(f"{where}: missing name")
        if not isinstance(ev.get("pid"), int) or not isinstance(ev.get("tid"), int):
            problems.append(f"{where}: pid/tid must be integers")
        if ph == "M":
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: ts must be a non-negative number")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: X event needs non-negative dur")
        if ph in ("s", "f"):
            if "id" not in ev:
                problems.append(f"{where}: flow event needs an id")
            else:
                bucket = flow_starts if ph == "s" else flow_ends
                bucket[ev["id"]] = bucket.get(ev["id"], 0) + 1
    for eid in flow_starts:
        if eid not in flow_ends:
            problems.append(f"flow id {eid}: start without finish")
    for eid in flow_ends:
        if eid not in flow_starts:
            problems.append(f"flow id {eid}: finish without start")
    return problems


def write_chrome_trace(tracer: Any, path: str) -> Dict[str, Any]:
    """Export to ``path``; returns the document (already validated)."""
    doc = chrome_trace(tracer)
    problems = validate_chrome_trace(doc)
    if problems:
        raise ValueError(f"invalid trace document: {problems[:3]}")
    with open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
    return doc
