"""Indexed critical path == the linear scan it replaced.

``critical_path`` used to find the innermost active span by scanning
every span of the node at every step of the backward walk, the previous
span end by scanning every closed span, and the edge that ended an
``eid``-less wait by scanning every delivery into the node.  It now
indexes spans once per ``(node, strand)`` and edges once per
destination.  The scan is kept here, verbatim, as the reference: on
seeded random traces built to hit every tie-break (equal ``t0`` within
and across strands, deliveries arriving together, open spans, gaps,
waits with and without an ``eid``, spans on a strand the walk ignores,
list order that is not start order) and on real traced runs, both must
return the same segments.
"""

import random
from typing import Any, Dict, List, Optional, Tuple

import pytest

from repro import ClusterConfig, DsmSystem, make_app, make_hooks_factory
from repro.harness.scales import app_kwargs
from repro.obs.critical import Segment, critical_path
from repro.sim.trace import MsgEdge, Span, Tracer

_EPS = 1e-15


# ----------------------------------------------------------------------
# the pre-index implementation, kept as the oracle
# ----------------------------------------------------------------------
def _active_span_scan(spans_at: Dict[Tuple[int, str], List[Any]], node: int,
                      t: float) -> Optional[Any]:
    best = None
    for strand in ("main", "server", "disk"):
        for span in spans_at.get((node, strand), ()):
            if span.t0 < t and span.t1 >= t:
                if best is None or span.t0 > best.t0:
                    best = span
    return best


def _edge_for_wait_scan(span: Any, t_hi: float,
                        edges_by_dst: Dict[int, List[Any]],
                        edges: List[Any]) -> Optional[Any]:
    if isinstance(span.detail, dict):
        eid = span.detail.get("eid", -1)
        if isinstance(eid, int) and 0 <= eid < len(edges):
            edge = edges[eid]
            if edge.t_recv >= 0:
                return edge
    best = None
    for edge in edges_by_dst.get(span.node, ()):
        if span.t0 <= edge.t_recv <= t_hi:
            if best is None or edge.t_recv > best.t_recv:
                best = edge
    return best


def critical_path_scan(tracer: Any, end_node: Optional[int] = None) -> List[Segment]:
    closed = [s for s in tracer.spans if s.t1 >= 0]
    if not closed:
        return []
    spans_at: Dict[Tuple[int, str], List[Any]] = {}
    for s in closed:
        spans_at.setdefault((s.node, s.strand), []).append(s)
    edges_by_dst: Dict[int, List[Any]] = {}
    for e in tracer.edges:
        if e.t_recv >= 0:
            edges_by_dst.setdefault(e.dst, []).append(e)

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
        span = _active_span_scan(spans_at, node, t)
        if span is None:
            prev_end = max(
                (s.t1 for s in closed if s.node == node and s.t1 < t),
                default=0.0,
            )
            segments.append(Segment(prev_end, t, node, "untracked", "cpu"))
            if prev_end <= _EPS:
                break
            t = prev_end
            continue
        if span.cat == "wait":
            edge = _edge_for_wait_scan(span, t, edges_by_dst, tracer.edges)
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


# ----------------------------------------------------------------------
# seeded random traces
# ----------------------------------------------------------------------
NODES = 3
#: Times come from a coarse grid so that equal starts, equal ends and
#: spans ending exactly where the walk lands are the common case.
GRID = 24


def _forest(rng: random.Random, lo: int, hi: int, depth: int) -> List[Tuple[int, int]]:
    """Properly nested ``(t0, t1)`` grid intervals inside ``[lo, hi]``,
    parents before children, siblings possibly sharing the parent's t0."""
    out: List[Tuple[int, int]] = []
    t = lo
    while t < hi and rng.random() < 0.85:
        t0 = t + rng.choice((0, 0, 1, 2))  # 0: starts with its parent / touches its sibling
        if t0 >= hi:
            break
        t1 = rng.randint(t0 + 1, hi)
        out.append((t0, t1))
        if depth and t1 - t0 > 1:
            out.extend(_forest(rng, t0, t1, depth - 1))
        t = t1 + rng.choice((0, 0, 1))  # 1: a gap the walk must bridge
    return out


def random_tracer(seed: int) -> Tracer:
    rng = random.Random(seed)
    tracer = Tracer(enabled=False)
    scale = rng.choice((1.0, 0.125, 1e-3))
    edges: List[MsgEdge] = []
    for _ in range(rng.randint(0, 40)):
        src, dst = rng.sample(range(NODES), 2)
        t_send = rng.randint(0, GRID - 1)
        delivered = rng.random() < 0.85
        t_recv = rng.randint(t_send, GRID) * scale if delivered else -1.0
        edges.append(MsgEdge(len(edges), src, dst, rng.choice(("diff", "grant")),
                             64, t_send * scale, t_recv))
    tracer.edges.extend(edges)

    spans: List[Tuple[int, str, str, str, float, float, Any]] = []
    for node in range(NODES):
        for strand in ("main", "server", "disk", "mirror"):
            if strand == "disk" and rng.random() < 0.5:
                # flushes in flight together: overlapping, not nested
                ivals = [(t0, rng.randint(t0 + 1, GRID))
                         for t0 in sorted(rng.randint(0, GRID - 1)
                                          for _ in range(rng.randint(0, 5)))]
            else:
                ivals = _forest(rng, 0, GRID, depth=rng.randint(0, 3))
            for t0, t1 in ivals:
                cat = {"main": rng.choice(("cpu", "sync", "wait", "wait")),
                       "server": "handler", "disk": "disk",
                       "mirror": "cpu"}[strand]
                detail: Any = None
                inbound = [e for e in edges if e.dst == node]
                if cat in ("wait", "handler") and rng.random() < 0.5:
                    # a wait/handler naming its edge -- sometimes a dropped
                    # one, sometimes an id past the end of the edge list
                    detail = {"eid": rng.choice(
                        [e.eid for e in inbound] + [len(edges) + 3, -1])}
                elif rng.random() < 0.2:
                    detail = rng.choice(("scalar", {"lock": 1}))
                open_span = rng.random() < 0.08
                spans.append((node, strand, f"{strand}{len(spans)}", cat,
                              t0 * scale, -1.0 if open_span else t1 * scale,
                              detail))
    if rng.random() < 0.3:
        rng.shuffle(spans)  # a loaded trace need not be in begin order
    for node, strand, name, cat, t0, t1, detail in spans:
        tracer.spans.append(Span(len(tracer.spans), -1, node, strand, name,
                                 cat, t0, t1, detail))
    return tracer


@pytest.mark.parametrize("seed", range(300))
def test_indexed_walk_equals_linear_scan_on_random_traces(seed):
    tracer = random_tracer(seed)
    assert critical_path(tracer) == critical_path_scan(tracer)
    for end_node in range(NODES + 1):  # NODES: a node with no spans at all
        assert (critical_path(tracer, end_node=end_node)
                == critical_path_scan(tracer, end_node=end_node)), end_node


def test_random_traces_exercise_every_branch():
    """The generator is only a test if it reaches what it claims to."""
    seen = set()
    for seed in range(300):
        tracer = random_tracer(seed)
        for seg in critical_path_scan(tracer):
            seen.add(seg.cat if seg.name != "untracked" else "untracked")
        closed = [s for s in tracer.spans if s.t1 >= 0]
        if any(s.t1 < 0 for s in tracer.spans):
            seen.add("open")
        starts = {}
        for s in closed:
            if s.strand in ("main", "server", "disk"):
                starts.setdefault((s.node, s.t0), set()).add(s.strand)
        if any(len(strands) > 1 for strands in starts.values()):
            seen.add("tie across strands")
    assert seen >= {"cpu", "sync", "wait", "net", "handler", "disk",
                    "untracked", "open", "tie across strands"}


@pytest.mark.parametrize("app,protocol", [("shallow", "ccl"), ("water", "ml")])
def test_indexed_walk_equals_linear_scan_on_a_real_run(app, protocol):
    tracer = Tracer(enabled=True)
    try:
        DsmSystem(
            make_app(app, **app_kwargs(app, "test")),
            ClusterConfig.ultra5(num_nodes=4),
            make_hooks_factory(protocol), protocol_name=protocol, tracer=tracer,
        ).run()
    finally:
        tracer.enabled = False
    path = critical_path(tracer)
    assert len(path) > 50
    assert path == critical_path_scan(tracer)
    for end_node in range(4):
        assert (critical_path(tracer, end_node=end_node)
                == critical_path_scan(tracer, end_node=end_node))
