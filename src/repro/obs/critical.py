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
from operator import attrgetter
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

#: One ``(node, strand)``'s closed spans, ordered for :func:`_innermost`:
#: ``(starts, spans, outer)``.
_StrandIndex = Tuple[List[float], List[Any], List[int]]


def _index_strand(spans: List[Any]) -> _StrandIndex:
    """Order one strand's closed spans (given in list order) for bisect.

    Ascending ``t0`` -- a recorded trace already is, spans are appended
    as they begin -- with spans that start together in *reverse* list
    order, so the rightmost active entry is the one the tie-break
    wants: latest ``t0``, then earliest in the list.  ``outer[j]`` is
    the nearest entry left of ``j`` that ends later than ``j`` does (-1
    for none): everything between the two ends no later than ``j``, so
    when ``j`` is over by ``t`` the search resumes at ``outer[j]`` --
    one hop per nesting level, not one per closed sibling.
    """
    ordered = sorted(reversed(spans), key=attrgetter("t0"))  # stable
    outer: List[int] = []
    later: List[int] = []  # entries whose end nothing to their right beats yet
    for j, span in enumerate(ordered):
        while later and ordered[later[-1]].t1 <= span.t1:
            later.pop()
        outer.append(later[-1] if later else -1)
        later.append(j)
    return [span.t0 for span in ordered], ordered, outer


def _innermost(index: _StrandIndex, t: float) -> Optional[Any]:
    """The strand's span with the latest ``t0`` among ``t0 < t <= t1``."""
    starts, ordered, outer = index
    j = bisect_left(starts, t) - 1
    while j >= 0 and ordered[j].t1 < t:
        j = outer[j]
    return ordered[j] if j >= 0 else None


def _active_span(strands: Dict[Tuple[int, str], _StrandIndex], node: int,
                 t: float) -> Optional[Any]:
    """Innermost span active at (node, t) across strands.

    Active means ``t0 < t <= t1`` (strict start keeps the walk
    strictly decreasing); innermost is the latest ``t0``, the earlier
    strand of :data:`_STRANDS` and then the earlier span in the list
    winning ties.  Open spans (``t1 < 0``) never participate -- they
    were cut off by a crash.
    """
    best = None
    for strand in _STRANDS:
        index = strands.get((node, strand))
        if index is not None:
            span = _innermost(index, t)
            if span is not None and (best is None or span.t0 > best.t0):
                best = span
    return best


def _edge_for_wait(span: Any, t_hi: float,
                   arrivals: Dict[int, Tuple[List[float], List[Any]]],
                   edges: List[Any]) -> Optional[Any]:
    """The delivered edge that ended a wait span (detail eid, else the
    latest delivery into the node inside the wait window, the earliest
    sent of those that arrived together)."""
    if isinstance(span.detail, dict):
        eid = span.detail.get("eid", -1)
        if isinstance(eid, int) and 0 <= eid < len(edges):
            edge = edges[eid]
            if edge.t_recv >= 0:
                return edge
    recvs, delivered = arrivals.get(span.node, ((), ()))
    i = bisect_right(recvs, t_hi)
    if i == 0 or recvs[i - 1] < span.t0:
        return None
    return delivered[bisect_left(recvs, recvs[i - 1])]


def critical_path(tracer: Any, end_node: Optional[int] = None) -> List[Segment]:
    """The span chain bounding the run's wall time, chronological.

    ``end_node`` picks which node's last activity anchors the walk
    (default: the node whose main strand finishes last).  Spans and
    delivered edges are indexed once, by ``(node, strand)`` start and by
    destination arrival, so each step of the walk is a bisect rather
    than a scan of the node's spans.
    """
    closed = [s for s in tracer.spans if s.t1 >= 0]
    if not closed:
        return []
    by_strand: Dict[Tuple[int, str], List[Any]] = {}
    ends_by_node: Dict[int, List[float]] = {}
    for s in closed:
        by_strand.setdefault((s.node, s.strand), []).append(s)
        ends_by_node.setdefault(s.node, []).append(s.t1)
    strands = {key: _index_strand(spans) for key, spans in by_strand.items()
               if key[1] in _STRANDS}
    for ends in ends_by_node.values():
        ends.sort()
    edges_by_dst: Dict[int, List[Any]] = {}
    for e in tracer.edges:
        if e.t_recv >= 0:
            edges_by_dst.setdefault(e.dst, []).append(e)
    arrivals = {}
    for dst, delivered in edges_by_dst.items():
        delivered.sort(key=attrgetter("t_recv"))  # stable: send order among ties
        arrivals[dst] = ([e.t_recv for e in delivered], delivered)

    if end_node is None:
        mains = [s for s in closed if s.strand == "main"]
        last = max(mains or closed, key=lambda s: s.t1)
        end_node, t = last.node, last.t1
    else:
        ours = [s for s in closed if s.node == end_node]
        t = max((s.t1 for s in ours), default=0.0)

    node = end_node
    segments: List[Segment] = []
    budget = 4 * (len(closed) + len(tracer.edges)) + 64
    while t > _EPS and budget > 0:
        budget -= 1
        span = _active_span(strands, node, t)
        if span is None:
            # gap before/between spans: attribute to untracked node time
            # up to the latest span end (on any strand) before t
            ends = ends_by_node.get(node, ())
            i = bisect_left(ends, t)
            prev_end = ends[i - 1] if i else 0.0
            segments.append(Segment(prev_end, t, node, "untracked", "cpu"))
            if prev_end <= _EPS:
                break
            t = prev_end
            continue
        if span.cat == "wait":
            edge = _edge_for_wait(span, t, arrivals, tracer.edges)
            if edge is not None and edge.t_send < t:
                if t > edge.t_recv:
                    segments.append(Segment(edge.t_recv, t, node,
                                            span.name, "wait"))
                segments.append(Segment(edge.t_send, min(edge.t_recv, t),
                                        edge.src, edge.kind, "net"))
                node, t = edge.src, edge.t_send
                continue
            segments.append(Segment(span.t0, t, node, span.name, "wait"))
            t = span.t0
            continue
        if (span.cat == "handler" and isinstance(span.detail, dict)
                and 0 <= span.detail.get("eid", -1) < len(tracer.edges)):
            edge = tracer.edges[span.detail["eid"]]
            if edge.t_recv >= 0 and edge.t_send < span.t0:
                segments.append(Segment(span.t0, t, node, span.name,
                                        "handler"))
                segments.append(Segment(edge.t_send, span.t0, edge.src,
                                        edge.kind, "net"))
                node, t = edge.src, edge.t_send
                continue
        segments.append(Segment(span.t0, t, node, span.name, span.cat))
        t = span.t0
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
    """Measure how much log-flush time communication waits hid."""
    waits_by_node: Dict[int, List[Tuple[float, float]]] = {}
    for s in tracer.spans:
        if s.cat == "wait" and s.strand == "main" and s.t1 >= 0:
            waits_by_node.setdefault(s.node, []).append((s.t0, s.t1))
    merged = {n: _merge_intervals(iv) for n, iv in waits_by_node.items()}

    report = FlushOverlap()
    for s in tracer.spans:
        if s.name != "log_flush" or s.t1 < 0:
            continue
        mode = (s.detail or {}).get("mode", "async") \
            if isinstance(s.detail, dict) else "async"
        duration = s.t1 - s.t0
        hidden = 0.0
        if mode == "async":
            for lo, hi in merged.get(s.node, ()):
                overlap = min(hi, s.t1) - max(lo, s.t0)
                if overlap > 0:
                    hidden += overlap
        else:
            report.sync_flush_s += duration
        report.flushes.append((s.node, s.t0, s.t1, hidden, mode))
        report.total_flush_s += duration
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
