"""Tracing-off fast path: zero span/edge allocation on a full app run.

PR 7 made span construction lazy: hot sites check the module-level
``TRACING_ACTIVE`` flag (and their tracer's ``enabled``) before building
span names or detail dicts.  This is the regression guard: with tracing
disabled, a complete application run must never call the tracer's
allocating entry points (``begin``/``end``/``edge_send``/``edge_recv``)
and must leave the span/edge/event buffers empty.  ``record()`` may be
*called* on the no-allocation path only through guarded sites, so it is
counted too.  The manager-side lock/barrier state machines hand their
event ``detail`` dicts to ``HlrcNode._manager_event``; that sink is
counted as well, because a dict that reaches it has already been built
(for a barrier check-in, with a fresh list of the whole vector clock).
So is ``Diff.run_table``: the run table exists for the trace detail (and
for the wire encoding, which a failure-free run never asks for), so an
untraced run must not build a single one.
"""

import gc

import pytest

from repro.config import ClusterConfig
from repro.dsm import DsmSystem
from repro.dsm.hlrc import HlrcNode
from repro.harness.runner import run_application
from repro.memory import Diff
from repro.sim import trace as trace_mod
from repro.sim.trace import Tracer


class CountingTracer(Tracer):
    """A disabled tracer that counts entry-point calls."""

    def __init__(self):
        super().__init__(enabled=False)
        self.calls = {"record": 0, "transition": 0, "begin": 0, "end": 0,
                      "edge_send": 0, "edge_recv": 0}

    def record(self, *a, **kw):
        self.calls["record"] += 1
        return super().record(*a, **kw)

    def transition(self, *a, **kw):
        self.calls["transition"] += 1
        return super().transition(*a, **kw)

    def begin(self, *a, **kw):
        self.calls["begin"] += 1
        return super().begin(*a, **kw)

    def end(self, *a, **kw):
        self.calls["end"] += 1
        return super().end(*a, **kw)

    def edge_send(self, *a, **kw):
        self.calls["edge_send"] += 1
        return super().edge_send(*a, **kw)

    def edge_recv(self, *a, **kw):
        self.calls["edge_recv"] += 1
        return super().edge_recv(*a, **kw)


def test_enabled_setter_maintains_tracing_active(monkeypatch):
    monkeypatch.setattr(trace_mod, "_enabled_tracers", 0)
    monkeypatch.setattr(trace_mod, "TRACING_ACTIVE", False)
    t = Tracer(enabled=False)
    assert trace_mod.TRACING_ACTIVE is False
    t.enabled = True
    assert trace_mod.TRACING_ACTIVE is True
    t.enabled = False
    assert trace_mod.TRACING_ACTIVE is False


def test_abandoned_enabled_tracer_releases_tracing_active(monkeypatch):
    """An enabled tracer dropped without being disabled (a model-check
    state, a sanitized chaos run) must not keep every later untraced run
    on the traced paths."""
    gc.collect()  # earlier tests' abandoned tracers: not ours
    monkeypatch.setattr(trace_mod, "_enabled_tracers", 0)
    monkeypatch.setattr(trace_mod, "TRACING_ACTIVE", False)
    t = Tracer(enabled=True)
    assert trace_mod.TRACING_ACTIVE is True
    del t
    gc.collect()
    assert trace_mod.TRACING_ACTIVE is False
    # disabling releases once; collecting the tracer later does not again
    kept = Tracer(enabled=True)
    t = Tracer(enabled=True)
    t.enabled = False
    del t
    gc.collect()
    assert trace_mod._enabled_tracers == 1 and trace_mod.TRACING_ACTIVE
    kept.enabled = False


def test_full_run_allocates_no_spans_or_edges(monkeypatch, request):
    """A whole app run with tracing off must not touch the tracer.

    Other tests construct enabled tracers without ever disabling them,
    which leaves the module-level refcount (and thus TRACING_ACTIVE)
    high until the collector finds them; reset both so this test sees
    the state a fresh tracing-off process sees.
    """
    if request.config.getoption("--sanitize"):
        pytest.skip("--sanitize forces tracing on; no tracing-off path")
    monkeypatch.setattr(trace_mod, "_enabled_tracers", 0)
    monkeypatch.setattr(trace_mod, "TRACING_ACTIVE", False)

    counting = CountingTracer()
    original_init = DsmSystem.__init__

    def patched_init(self, *args, **kwargs):
        kwargs["tracer"] = counting
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(DsmSystem, "__init__", patched_init)
    manager_details = []
    monkeypatch.setattr(
        HlrcNode, "_manager_event",
        lambda self, event, detail: manager_details.append((event, detail)))
    run_tables = []
    run_table = Diff.run_table
    monkeypatch.setattr(
        Diff, "run_table",
        lambda self: run_tables.append(self) or run_table(self))
    result, system = run_application(
        "water", "ccl", ClusterConfig.ultra5(num_nodes=4), "test")

    assert system.tracer is counting
    assert result.completed
    assert result.aggregate.counters["diffs_created"] > 0
    assert run_tables == [], (
        f"{len(run_tables)} run tables built with tracing disabled: a "
        "trace site derives its detail outside the `_tracing` guard")
    # the lock and barrier managers ran (water takes locks and barriers)
    # without building a single event detail for the dropped trace
    assert result.aggregate.counters["lock_acquires"] > 0
    assert result.aggregate.counters["barriers"] > 0
    assert manager_details == [], (
        f"{len(manager_details)} manager event details built with tracing "
        f"disabled, first: {manager_details[:1]}")
    # water exercises locks, barriers, faults, diffs, and log flushes --
    # every instrumented path -- yet nothing was allocated:
    assert len(counting.spans) == 0
    assert len(counting.edges) == 0
    assert len(counting.events) == 0
    # and the span/edge entry points were never even *called*: the
    # TRACING_ACTIVE guard short-circuits before argument construction
    for name in counting.calls:
        assert counting.calls[name] == 0, (
            f"tracer.{name} called {counting.calls[name]} times with "
            "tracing disabled -- a call site lost its TRACING_ACTIVE guard")


def test_latency_recorders_stay_on_with_tracing_off(monkeypatch):
    """The always-on latency histograms are independent of tracing."""
    result, _system = run_application(
        "water", "ccl", ClusterConfig.ultra5(num_nodes=4), "test")
    latency = result.aggregate.latency
    for op in ("lock_acquire", "barrier", "page_fetch",
               "lock_queue_wait", "barrier_gather"):
        assert op in latency, f"missing always-on recorder for {op}"
        assert latency[op].count > 0
        assert latency[op].quantile(0.99) > 0
