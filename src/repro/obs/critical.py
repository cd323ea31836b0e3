"""Causal critical-path extraction and the flush/communication overlap.

Two analyses over a recorded span/edge DAG
(:class:`~repro.sim.trace.Tracer`):

**Critical path** (:func:`critical_path`).  Starting from the last span
end in the run, walk *backwards* through causality: at time ``t`` on a
node, the innermost active span owns the time; a ``wait``-category span
is resolved through the message edge that ended it (jumping to the
sender at its send time); a handler span jumps through the inbound
message it serves.  Every step strictly decreases ``t``, so the walk
terminates with a chronological chain of segments whose durations sum
to the run's wall time -- *which* span chain bounds the run, per node
and per interval.

**Flush/communication overlap** (:func:`flush_overlap`).  The paper's
central claim is that CCL hides stable-log flush latency behind the
diff round trip HLRC already performs.  For every ``log_flush`` span F
recorded on a node's disk strand, the hidden time is the length of
F's intersection with the union of that node's ``wait``-category spans
(diff-ACK waits, lock/barrier waits) on the main strand; the overlap
fraction is hidden time over flush time.  Synchronous flushes (ML's
policy, span detail ``mode: "sync"``) hold the main strand by
definition, so their hidden time is zero -- the ML baseline the CCL
numbers are compared against.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "Segment",
    "critical_path",
    "summarize_path",
    "render_path",
    "FlushOverlap",
    "flush_overlap",
    "render_overlap",
]

_EPS = 1e-15


@dataclass(frozen=True)
class Segment:
    """One attributed stretch of the critical path."""

    t0: float
    t1: float
    node: int
    name: str
    cat: str

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


# ----------------------------------------------------------------------
# critical path
# ----------------------------------------------------------------------

#: Strands the walk attributes time to, in tie-break order.
_STRANDS = ("main", "server", "disk")

#: One strand's closed span rows for :func:`_innermost`: ``(starts, ends, rows, outer)``.
_StrandIndex = Tuple[List[float], List[float], List[int], List[int]]


def _index_strand(rows: List[int], t0: List[float], t1: List[float]) -> _StrandIndex:
    """Order one strand's closed span rows (given in row order) for bisect.

    Ascending ``t0`` -- a recorded trace already is, spans are appended
    as they begin -- with spans that start together in *reverse* row
    order, so the rightmost active entry is the one the tie-break
    wants: latest ``t0``, then earliest row.  ``outer[j]`` is the
    nearest entry left of ``j`` that ends later than ``j`` does (-1 for
    none): everything between the two ends no later than ``j``, so when
    ``j`` is over by ``t`` the search resumes at ``outer[j]`` -- one hop
    per nesting level, not one per closed sibling.
    """
    ordered = sorted(reversed(rows), key=t0.__getitem__)  # stable
    ends = [t1[i] for i in ordered]
    outer: List[int] = []
    later: List[int] = []  # entries whose end nothing to their right beats yet
    for j, end in enumerate(ends):
        while later and ends[later[-1]] <= end:
            later.pop()
        outer.append(later[-1] if later else -1)
        later.append(j)
    return [t0[i] for i in ordered], ends, ordered, outer


def _innermost(index: _StrandIndex, t: float) -> int:
    """The strand's span row with the latest ``t0`` among ``t0 < t <= t1``, or -1."""
    starts, ends, rows, outer = index
    j = bisect_left(starts, t) - 1
    while j >= 0 and ends[j] < t:
        j = outer[j]
    return rows[j] if j >= 0 else -1


def _active_span(strands: Dict[Tuple[int, str], _StrandIndex], node: int,
                 t: float, t0: List[float]) -> int:
    """Innermost span row active at (node, t) across strands (-1: none).

    Active means ``t0 < t <= t1`` (strict start keeps the walk
    strictly decreasing); innermost is the latest ``t0``, the earlier
    strand of :data:`_STRANDS` and then the earlier row winning ties.
    Open spans (``t1 < 0``, cut off by a crash) never participate.
    """
    best = -1
    for strand in _STRANDS:
        index = strands.get((node, strand))
        if index is not None:
            i = _innermost(index, t)
            if i >= 0 and (best < 0 or t0[i] > t0[best]):
                best = i
    return best


def _eid(detail: Any, edges: int) -> int:
    """The in-range edge id a span detail names, else -1."""
    eid = detail.get("eid", -1) if isinstance(detail, dict) else -1
    return eid if isinstance(eid, int) and 0 <= eid < edges else -1


def critical_path(tracer: Any, end_node: Optional[int] = None) -> List[Segment]:
    """The span chain bounding the run's wall time, chronological.

    ``end_node`` picks which node's last activity anchors the walk
    (default: the node whose main strand finishes last).  Spans and
    delivered edges are indexed once from the tracer's columns, by
    ``(node, strand)`` start and by destination arrival, so each step of
    the walk is a bisect rather than a scan of the node's spans.
    """
    sp, ed, names = tracer.columns["spans"], tracer.columns["edges"], tracer.strings
    t0, t1, nodes = sp["t0"].tolist(), sp["t1"].tolist(), sp["node"].tolist()
    closed = [i for i, end in enumerate(t1) if end >= 0]
    if not closed:
        return []
    strand = [names[i] for i in sp["strand"]]
    by_strand: Dict[Tuple[int, str], List[int]] = {}
    ends_by_node: Dict[int, List[float]] = {}
    for i in closed:
        by_strand.setdefault((nodes[i], strand[i]), []).append(i)
        ends_by_node.setdefault(nodes[i], []).append(t1[i])
    strands = {key: _index_strand(rows, t0, t1) for key, rows in by_strand.items()
               if key[1] in _STRANDS}
    for ends in ends_by_node.values():
        ends.sort()
    src, ts, tr = ed["src"].tolist(), ed["ts"].tolist(), ed["tr"].tolist()
    arrivals: Dict[int, Tuple[List[float], List[int]]] = {}
    for e, dst in enumerate(ed["dst"]):
        if tr[e] >= 0:
            arrivals.setdefault(dst, ([], []))[1].append(e)
    for recvs, delivered in arrivals.values():
        delivered.sort(key=tr.__getitem__)  # stable: send order among ties
        recvs.extend(tr[e] for e in delivered)

    def edge_for_wait(i: int, t_hi: float) -> int:
        """The delivered edge that ended wait ``i``: its detail's eid, else the latest
        delivery into the node inside the wait (earliest sent of a tie), else -1."""
        eid = _eid(tracer.detail("spans", i), len(ts))
        if eid >= 0 and tr[eid] >= 0:
            return eid
        recvs, delivered = arrivals.get(nodes[i], ((), ()))
        k = bisect_right(recvs, t_hi)
        if k == 0 or recvs[k - 1] < t0[i]:
            return -1
        return delivered[bisect_left(recvs, recvs[k - 1])]

    if end_node is None:
        mains = [i for i in closed if strand[i] == "main"]
        last = max(mains or closed, key=t1.__getitem__)
        end_node, t = nodes[last], t1[last]
    else:
        t = max((t1[i] for i in closed if nodes[i] == end_node), default=0.0)

    node = end_node
    segments: List[Segment] = []
    budget = 4 * (len(closed) + len(ts)) + 64
    while t > _EPS and budget > 0:
        budget -= 1
        i = _active_span(strands, node, t, t0)
        if i < 0:
            # gap before/between spans: attribute to untracked node time
            # up to the latest span end (on any strand) before t
            ends = ends_by_node.get(node, ())
            k = bisect_left(ends, t)
            prev_end = ends[k - 1] if k else 0.0
            segments.append(Segment(prev_end, t, node, "untracked", "cpu"))
            if prev_end <= _EPS:
                break
            t = prev_end
            continue
        name, cat = names[sp["name"][i]], names[sp["cat"][i]]
        if cat == "wait":
            e = edge_for_wait(i, t)
            if e >= 0 and ts[e] < t:
                if t > tr[e]:
                    segments.append(Segment(tr[e], t, node, name, "wait"))
                segments.append(Segment(ts[e], min(tr[e], t), src[e],
                                        names[ed["kind"][e]], "net"))
                node, t = src[e], ts[e]
                continue
            segments.append(Segment(t0[i], t, node, name, "wait"))
            t = t0[i]
            continue
        e = _eid(tracer.detail("spans", i), len(ts)) if cat == "handler" else -1
        if e >= 0 and tr[e] >= 0 and ts[e] < t0[i]:
            segments.append(Segment(t0[i], t, node, name, "handler"))
            segments.append(Segment(ts[e], t0[i], src[e], names[ed["kind"][e]], "net"))
            node, t = src[e], ts[e]
            continue
        segments.append(Segment(t0[i], t, node, name, cat))
        t = t0[i]
    segments.reverse()
    return segments


def summarize_path(segments: List[Segment]) -> Dict[str, float]:
    """Critical-path seconds by category."""
    by_cat: Dict[str, float] = {}
    for seg in segments:
        by_cat[seg.cat] = by_cat.get(seg.cat, 0.0) + seg.duration
    return dict(sorted(by_cat.items(), key=lambda kv: -kv[1]))


def render_path(segments: List[Segment], limit: int = 0) -> str:
    """Human-readable critical-path report."""
    if not segments:
        return "critical path: no closed spans recorded"
    total = segments[-1].t1 - segments[0].t0
    lines = [f"critical path: {len(segments)} segments, "
             f"{total * 1e3:.3f} ms total"]
    for cat, secs in summarize_path(segments).items():
        pct = 100.0 * secs / total if total else 0.0
        lines.append(f"  {cat:<8} {secs * 1e3:9.3f} ms  {pct:5.1f}%")
    shown = segments if limit <= 0 else segments[-limit:]
    if limit > 0 and len(segments) > limit:
        lines.append(f"  ... last {limit} of {len(segments)} segments:")
    for seg in shown:
        lines.append(
            f"  [{seg.t0 * 1e3:10.4f}, {seg.t1 * 1e3:10.4f}] ms  "
            f"n{seg.node} {seg.cat:<7} {seg.name}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# flush/communication overlap (the paper's claim, measured)
# ----------------------------------------------------------------------

@dataclass
class FlushOverlap:
    """Aggregate flush-hiding measurement for one run."""

    #: (node, t0, t1, hidden_s, mode) per closed log_flush span.
    flushes: List[Tuple[int, float, float, float, str]] = field(
        default_factory=list
    )
    total_flush_s: float = 0.0
    hidden_s: float = 0.0
    sync_flush_s: float = 0.0

    @property
    def overlap_fraction(self) -> float:
        """Fraction of flush time hidden behind communication waits."""
        return self.hidden_s / self.total_flush_s if self.total_flush_s else 0.0

    def per_node(self) -> Dict[int, Tuple[float, float]]:
        """node -> (flush seconds, hidden seconds)."""
        out: Dict[int, Tuple[float, float]] = {}
        for node, t0, t1, hidden, _mode in self.flushes:
            f, h = out.get(node, (0.0, 0.0))
            out[node] = (f + (t1 - t0), h + hidden)
        return out


def _merge_intervals(ivals: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    if not ivals:
        return []
    ivals = sorted(ivals)
    merged = [ivals[0]]
    for lo, hi in ivals[1:]:
        mlo, mhi = merged[-1]
        if lo <= mhi:
            merged[-1] = (mlo, max(mhi, hi))
        else:
            merged.append((lo, hi))
    return merged


def flush_overlap(tracer: Any) -> FlushOverlap:
    """Measure how much log-flush time communication waits hid.  A flush
    bisects into its node's merged (disjoint, sorted) waits: O(F log W)."""
    sp, ids = tracer.columns["spans"], {s: i for i, s in enumerate(tracer.strings)}
    wait, main, flush = (ids.get(s, -1) for s in ("wait", "main", "log_flush"))
    t0, t1, nodes = sp["t0"].tolist(), sp["t1"].tolist(), sp["node"].tolist()
    waits_by_node: Dict[int, List[Tuple[float, float]]] = {}
    for i, (cat, strand) in enumerate(zip(sp["cat"], sp["strand"])):
        if cat == wait and strand == main and t1[i] >= 0:
            waits_by_node.setdefault(nodes[i], []).append((t0[i], t1[i]))
    merged = {n: _merge_intervals(iv) for n, iv in waits_by_node.items()}
    wait_ends = {n: [hi for _lo, hi in iv] for n, iv in merged.items()}

    report = FlushOverlap()
    for i, name in enumerate(sp["name"]):
        if name != flush or t1[i] < 0:
            continue
        detail = tracer.detail("spans", i)
        mode = detail.get("mode", "async") if isinstance(detail, dict) else "async"
        node, f0, f1 = nodes[i], t0[i], t1[i]
        hidden = 0.0
        if mode == "async":
            for lo, hi in islice(merged.get(node, ()),
                                 bisect_right(wait_ends.get(node, ()), f0), None):
                if lo >= f1:
                    break
                overlap = min(hi, f1) - max(lo, f0)
                if overlap > 0:
                    hidden += overlap
        else:
            report.sync_flush_s += f1 - f0
        report.flushes.append((node, f0, f1, hidden, mode))
        report.total_flush_s += f1 - f0
        report.hidden_s += hidden
    return report


def render_overlap(report: FlushOverlap, protocol: str = "") -> str:
    """Human-readable flush-overlap report."""
    tag = f" [{protocol}]" if protocol else ""
    if not report.flushes:
        return f"flush overlap{tag}: no log_flush spans recorded"
    lines = [
        f"flush overlap{tag}: {len(report.flushes)} flushes, "
        f"{report.total_flush_s * 1e3:.3f} ms flushed, "
        f"{report.hidden_s * 1e3:.3f} ms hidden behind communication "
        f"-> overlap fraction {report.overlap_fraction:.3f}"
    ]
    if report.sync_flush_s:
        lines.append(
            f"  synchronous flushes: {report.sync_flush_s * 1e3:.3f} ms "
            "(on the critical path by construction)"
        )
    for node, (flush_s, hidden_s) in sorted(report.per_node().items()):
        frac = hidden_s / flush_s if flush_s else 0.0
        lines.append(
            f"  node {node}: {flush_s * 1e3:8.3f} ms flushed, "
            f"{hidden_s * 1e3:8.3f} ms hidden ({frac:.3f})"
        )
    return "\n".join(lines)
