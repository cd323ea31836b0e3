"""Retention guard: what a traced run's tracer keeps, per record.

The companion of ``tests/core/test_snapshot_retention.py`` for the trace
store.  A tracer keeps events, spans and edges as rows of typed columns
and their details as pickled chunks, so what it holds does not grow by
one Python object per record.  Kept as objects -- a pending tuple per
event, a ``Span``/``MsgEdge`` per span and edge, a detail dict per
record -- a traced 8-node ``shallow`` run at benchmark scale held about
150k objects for the collector to walk (0.2-0.3 s of collection in a
1.2 s run) and 24 MB.  On a traced 4-node ``shallow/ccl`` run at test
scale this checks, by what ``Tracer.clear`` releases, that:

* the tracer holds a bounded number of GC-tracked objects -- its
  tables, and the details of a pending batch until a read pickles them
  -- not one or more per record (12 once read, 143 with a pending
  batch, for 6 663 records; 10 797 before);
* its retained bytes per record stay under a budget set from the
  columnar store's measurement (44 B per record once read; 264 B
  before).
"""

import gc
import tracemalloc

import pytest

from repro import ClusterConfig, DsmSystem, make_app, make_hooks_factory
from repro.harness.scales import app_kwargs
from repro.sim import trace
from repro.sim.trace import Tracer

#: GC-tracked objects a tracer may hold once read, whatever the run; a
#: pending batch adds a detail dict and two lists per row, at most.
TRACKED_BOUND = 64
PENDING_BOUND = TRACKED_BOUND + 2 * 3 * trace._DETAILS
#: Retained bytes per recorded event, span or edge.
BYTES_PER_RECORD = 56


def test_a_traced_run_retains_no_object_and_few_bytes_per_record(request):
    if request.config.getoption("--sanitize"):
        pytest.skip("--sanitize reads the whole trace, building its events")
    tracer = Tracer(enabled=True)
    system = DsmSystem(
        make_app("shallow", **app_kwargs("shallow", "test")),
        ClusterConfig.ultra5(num_nodes=4),
        make_hooks_factory("ccl"), protocol_name="ccl", tracer=tracer,
    )
    tracemalloc.start()
    try:
        assert system.run().completed
        tracer.enabled = False
        records = len(tracer) + len(tracer.spans) + len(tracer.edges)
        gc.collect()
        pending = len(gc.get_objects())
        tracer.columns  # a read pickles the pending details
        gc.collect()
        tracked, held = len(gc.get_objects()), tracemalloc.get_traced_memory()[0]
        tracer.clear()
        gc.collect()
        pending -= len(gc.get_objects())
        tracked -= len(gc.get_objects())
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert records > 5000
    assert pending <= PENDING_BOUND and tracked <= TRACKED_BOUND, (
        f"the tracer holds {pending} GC-tracked objects for {records} records "
        f"({tracked} once read)")
    assert held / records <= BYTES_PER_RECORD, (
        f"the tracer retains {held / records:.1f} B per record "
        f"({held} B for {records} records)")
