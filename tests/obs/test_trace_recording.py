"""Guard: a traced run records events as rows and builds them when read.

``Tracer.record`` and ``Tracer.transition`` add a row to the tracer's
columns; the ``runs`` of ``interval_end`` and ``early_diff`` are kept as
each diff's read-only mask and run count.  The first read of
``Tracer.events`` turns the rows not yet read into the ``TraceEvent``s
an eager tracer would have built, byte for byte
(``golden_trace_contract.json`` pins the bytes).  On a traced 4-node
``shallow/ccl`` run at test scale this checks that:

* ``system.run()`` constructs no ``TraceEvent`` and builds no run table;
* ``len(tracer)`` counts without materialising, and agrees afterwards;
* reading ``events`` mid-run (from a crash probe) and again at the end
  gives the sequence one read at the end gives.
"""

import pytest

from repro import ClusterConfig, DsmSystem, make_app, make_hooks_factory
from repro.harness.scales import app_kwargs
from repro.memory import Diff
from repro.sim import trace as trace_mod
from repro.sim.trace import Ev, TraceEvent, Tracer


def _traced_shallow(probe=None):
    """A traced 4-node ``shallow/ccl`` system at test scale, and its tracer."""
    tracer = Tracer(enabled=True)
    system = DsmSystem(
        make_app("shallow", **app_kwargs("shallow", "test")),
        ClusterConfig.ultra5(num_nodes=4),
        make_hooks_factory("ccl"), protocol_name="ccl", tracer=tracer,
    )
    if probe is not None:
        system.add_probe(probe)
    return system, tracer


def _run(system, tracer):
    try:
        assert system.run().completed
    finally:
        tracer.enabled = False
    return tracer


def _lines(events):
    return [e.to_json() for e in events]


@pytest.fixture(scope="module")
def read_at_end():
    """The event lines of a run whose trace is read once, at the end."""
    return _lines(_run(*_traced_shallow()).events)


def test_run_builds_no_events_and_no_run_tables(monkeypatch, request):
    if request.config.getoption("--sanitize"):
        pytest.skip("--sanitize reads the whole trace inside run()")
    built, tables, deferred = [], [], []
    init, run_table = TraceEvent.__init__, Diff.run_table
    monkeypatch.setattr(
        TraceEvent, "__init__",
        lambda self, *a, **kw: built.append(1) or init(self, *a, **kw))
    monkeypatch.setattr(
        Diff, "run_table", lambda self: tables.append(self) or run_table(self))
    runs_of_mask = trace_mod.runs_of_mask
    monkeypatch.setattr(
        trace_mod, "runs_of_mask",
        lambda *a: deferred.append(1) or runs_of_mask(*a))

    system, tracer = _traced_shallow()
    _run(system, tracer)
    assert built == [] and tables == [] and deferred == [], (
        f"system.run() built {len(built)} TraceEvents and "
        f"{len(tables) + len(deferred)} run tables in a traced run")

    recorded = len(tracer)
    assert recorded > 0 and built == []
    events = tracer.events
    assert len(tracer) == len(events) == recorded == len(built)
    writes = sum(len(e.detail["writes"]) for e in events
                 if e.event == Ev.INTERVAL_END)
    early = sum(e.event == Ev.EARLY_DIFF for e in events)
    assert len(deferred) == writes + early > 0
    assert tables == []
    assert sum(e.event == Ev.PAGE_STATE for e in events) > recorded // 4


def test_mid_run_reads_give_the_sequence_one_read_gives(read_at_end):
    seen = []

    def probe(node, seal_count):
        # a crash probe reading the trace at every seal of node 1
        if node.id == 1:
            seen.append(len(node.system.tracer.events))

    tracer = _run(*_traced_shallow(probe=probe))
    assert len(seen) > 2 and 0 < seen[0] < seen[-1]
    assert len(tracer) == len(read_at_end)
    assert _lines(tracer.events) == read_at_end
    # a read materialises only what is pending: a second one changes nothing
    assert _lines(tracer.events) == read_at_end
