"""Tracer serialization: JSONL round-trip and the event buffer."""

from repro.sim.trace import Ev, MsgEdge, Span, TraceEvent, Tracer


def _sample_tracer() -> Tracer:
    t = Tracer(enabled=True)
    t.record(0.0, 0, Ev.LOCK_GRANT, {"lock": 1, "to": 1, "queued": False})
    t.record(1.5, 1, Ev.LOCK_ACQUIRED, {"lock": 1, "vt": [1, 0]})
    t.record(2.0, 1, Ev.PAGE_FETCH,
             {"page": 3, "home": 0, "crc": 0xDEADBEEF, "version": [1, 0]})
    return t


class TestJsonlRoundTrip:
    def test_events_survive_verbatim(self):
        t = _sample_tracer()
        back = Tracer.from_jsonl(t.to_jsonl())
        assert list(back.events) == list(t.events)

    def test_event_json_fields_are_compact(self):
        ev = TraceEvent(2.0, 1, Ev.PAGE_FETCH, {"page": 3})
        assert Tracer.from_jsonl(ev.to_json()).events == [ev]
        assert set(ev.to_json()) >= set('{"t"')  # keys are t/n/e/d

    def test_save_load(self, tmp_path):
        t = _sample_tracer()
        path = tmp_path / "trace.jsonl"
        n = t.save(str(path))
        assert n == len(t) == 3
        assert list(Tracer.load(str(path)).events) == list(t.events)

    def test_blank_lines_ignored(self):
        t = _sample_tracer()
        back = Tracer.from_jsonl("\n" + t.to_jsonl() + "\n\n")
        assert len(back) == 3


def _span_tracer() -> Tracer:
    """Events, spans, and edges together."""
    t = _sample_tracer()
    outer = t.begin(0.0, 0, "barrier", "sync")
    inner = t.begin(0.25, 0, "diff_wait", "wait")  # nested on main strand
    flush = t.begin(0.5, 0, "log_flush", "disk", strand="disk",
                    detail={"mode": "async", "interval": 2})
    eid = t.edge_send(0.25, 0, 1, "diff", 4096)
    t.edge_recv(eid, 0.75)
    t.end(flush, 1.0)
    t.end(inner, 1.2)
    t.end(outer, 1.5)
    t.begin(2.0, 1, "compute", "cpu")  # left open (crash cut-off)
    t.edge_send(2.5, 1, 0, "lock_req", 64)  # never delivered
    return t


class TestSpanEdgeRoundTrip:
    def test_spans_and_edges_survive(self):
        t = _span_tracer()
        back = Tracer.from_jsonl(t.to_jsonl())
        assert back.spans == t.spans
        assert back.edges == t.edges
        assert list(back.events) == list(t.events)

    def test_parenthood_and_open_state_preserved(self):
        back = Tracer.from_jsonl(_span_tracer().to_jsonl())
        outer, inner, flush, open_span = back.spans
        assert inner.parent == outer.sid  # same-strand nesting
        assert outer.parent == -1
        assert flush.parent == -1  # disk strand has its own stack
        assert open_span.t1 < 0  # never closed
        assert flush.detail == {"mode": "async", "interval": 2}

    def test_undelivered_edge_keeps_negative_recv(self):
        back = Tracer.from_jsonl(_span_tracer().to_jsonl())
        delivered, pending = back.edges
        assert delivered.t_recv == 0.75
        assert pending.t_recv < 0

    def test_save_load_mixed(self, tmp_path):
        t = _span_tracer()
        path = tmp_path / "trace.jsonl"
        t.save(str(path))
        back = Tracer.load(str(path))
        assert (back.spans, back.edges) == (t.spans, t.edges)

    def test_len_counts_events_only(self):
        assert len(_span_tracer()) == 3

    def test_clear_resets_spans_edges_and_stacks(self):
        t = _span_tracer()
        t.clear()
        assert not t.spans and not t.edges and len(t) == 0
        sid = t.begin(0.0, 0, "fresh", "cpu")
        assert t.spans[sid].parent == -1  # stale stacks would parent this

    def test_disabled_tracer_records_no_spans(self):
        t = Tracer(enabled=False)
        sid = t.begin(0.0, 0, "x", "cpu")
        assert sid == -1
        t.end(sid, 1.0)
        assert t.edge_send(0.0, 0, 1, "diff", 10) == -1
        assert not t.spans and not t.edges

    def test_from_obj_dispatch(self):
        # the loader sends each record to its table by tag key
        span = Span(0, -1, 3, "main", "acquire", "sync", 1.0, 2.0)
        edge = MsgEdge(0, 1, 2, "diff", 128, 0.5, 0.75)
        back = Tracer.from_jsonl(f"{edge.to_json()}\n{span.to_json()}")
        assert (list(back.spans), list(back.edges), len(back)) == ([span], [edge], 0)


class TestBoundedBuffer:
    """The buffer keeps every record while enabled and none while disabled."""

    def test_unbounded_drops_nothing(self):
        t = Tracer(enabled=True)
        for i in range(10):
            t.record(float(i), 0, Ev.BARRIER_CHECKIN, {"episode": i})
        assert len(t) == 10
        assert [e.detail["episode"] for e in t.events] == list(range(10))

    def test_disabled_records_nothing(self):
        t = Tracer(enabled=False)
        t.record(0.0, 0, Ev.BARRIER_CHECKIN, {"episode": 1})
        assert len(t) == 0
