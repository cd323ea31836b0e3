"""Tests for protocol-event tracing through the DSM system."""

import numpy as np

from repro.config import ClusterConfig
from repro.dsm import DsmSystem
from repro.sim.trace import Ev, Tracer
from tests.dsm.conftest import MiniApp


def make_system(tracer):
    def alloc(space, nprocs):
        space.allocate("x", (64,), np.int32, init=np.zeros(64, np.int32))

    def program(dsm):
        if dsm.rank == 0:
            yield from dsm.write("x")
            dsm.arr("x")[:] = 1
        yield from dsm.acquire(1)
        yield from dsm.release(1)
        yield from dsm.barrier()
        yield from dsm.read("x")

    app = MiniApp(alloc, program, homes=lambda s, n: [0] * s.npages)
    cfg = ClusterConfig.ultra5(num_nodes=2, page_size=256)
    return DsmSystem(app, cfg, tracer=tracer)


def test_tracer_disabled_by_default_records_nothing():
    system = make_system(None)
    system.run()
    assert len(system.tracer) == 0


def test_tracer_records_sync_and_fault_events():
    tracer = Tracer(enabled=True)
    system = make_system(tracer)
    system.run()
    events = {e.event for e in tracer.events}
    assert {Ev.LOCK_ACQUIRED, Ev.LOCK_RELEASED, Ev.BARRIER_ENTER, Ev.BARRIER_EXIT,
            Ev.INTERVAL_END, Ev.PAGE_FETCH} <= events
    # per-node filtering works and timestamps are monotone per node
    for node in (0, 1):
        times = [e.time for e in tracer.filter(node=node)]
        assert times == sorted(times)
    # only the non-home rank faults
    fault_nodes = {e.node for e in tracer.filter(event=Ev.PAGE_FETCH)}
    assert fault_nodes == {1}


def test_trace_details_carry_ids():
    tracer = Tracer(enabled=True)
    system = make_system(tracer)
    system.run()
    assert {e.detail["lock"] for e in tracer.filter(event=Ev.LOCK_ACQUIRED)} == {1}
    seals = tracer.filter(event=Ev.INTERVAL_END, node=0)
    assert seals and [e.detail["interval"] for e in seals] == list(range(len(seals)))
