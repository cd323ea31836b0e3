"""The paper's Figure 1, reproduced event by event.

Figure 1 walks CCL through a three-process scenario: pages x, y, z are
homed at P1, P2, P3.  During failure-free execution P1 acquires the
lock, writes all three pages, and at release flushes diff(y) to P2 and
diff(z) to P3 while logging them locally; the homes record the
incoming-update events.  P2 then acquires the lock, receives
invalidation notices for x and z, faults them in from their homes
(page y is its own home copy -- no fault), writes, and releases.
Figure 1(b) crashes P2 right after its logs are flushed and replays it:
P2 reads its logged notices and update-event records, fetches page z
from P3 and page x together with the interval-A diff of y from P1.

This test scripts exactly that execution and asserts the protocol and
log events the figure names, then runs the recovery and checks the
figure's replay actions (prefetch of x and z, update of home page y
from P1's logged diff, zero replay faults, bit-exact state).
"""

import numpy as np
import pytest

from repro.apps import DsmApplication
from repro.config import ClusterConfig
from repro.core import (
    UpdateEventLogRecord,
    NoticeLogRecord,
    OwnDiffLogRecord,
    make_hooks_factory,
    run_recovery_experiment,
)
from repro.dsm import DsmSystem

P1, P2, P3 = 0, 1, 2
PAGE = 4096
LOCK = 0


class ScriptedFigure1(DsmApplication):
    """Both critical sections, ordered as in the figure's time axis."""

    name = "figure1"
    synchronization = "locks and barriers"

    def allocate(self, space, nprocs):
        for name in ("x", "y", "z"):
            space.allocate(name, (8,), np.int64, init=np.zeros(8, np.int64))

    def homes(self, space, nprocs):
        return [P1, P2, P3]

    def program(self, dsm):
        if dsm.rank == P1:
            yield from dsm.acquire(LOCK)  # interval A
            for name in ("x", "y", "z"):
                yield from dsm.write(name)
                dsm.arr(name)[:] += 11
            yield from dsm.release(LOCK)
        elif dsm.rank == P2:
            # ensure P1 wins the lock race: P2 starts later
            yield from dsm.compute(3e5)
            yield from dsm.acquire(LOCK)  # interval B: inva(x, z) arrives
            for name in ("z", "x", "y"):  # the figure's write order
                yield from dsm.write(name)
                dsm.arr(name)[:] += 100
            yield from dsm.release(LOCK)
        yield from dsm.barrier()
        yield from dsm.read("x")
        yield from dsm.read("y")
        yield from dsm.read("z")
        # closing barrier: events that arrived during the previous
        # barrier's wait are still volatile and need one more flush
        yield from dsm.barrier()


@pytest.fixture(scope="module")
def system():
    cfg = ClusterConfig.ultra5(num_nodes=3)
    app = ScriptedFigure1()
    system = DsmSystem(app, cfg, make_hooks_factory("ccl"))
    system.run()
    return system


class TestFailureFreeExecution:
    def test_p1_flushes_and_logs_its_diffs(self, system):
        """'P1 flushes diff(y) to P2 and diff(z) to P3 ... and also
        stores those diffs in its local disk, as required by our CCL.'"""
        own = system.nodes[P1].hooks.log.select(OwnDiffLogRecord)
        assert own, "P1 logged no interval diffs"
        first = own[0]
        diffed_pages = {d.page for d in first.diffs}
        assert diffed_pages == {1, 2}  # y (page 1) and z (page 2)
        # our home-write extension additionally logs diff(x) at its home
        assert {d.page for d in first.home_diffs} == {0}

    def test_homes_record_incoming_update_events(self, system):
        """'P2 and P3 ... record this asynchronous update event.'"""
        ev_p2 = system.nodes[P2].hooks.log.select(UpdateEventLogRecord)
        assert any(ev.writer == P1 and 1 in ev.pages for ev in ev_p2)
        ev_p3 = system.nodes[P3].hooks.log.select(UpdateEventLogRecord)
        assert any(ev.writer == P1 and 2 in ev.pages for ev in ev_p3)

    def test_p2_receives_invalidation_notices_for_x_and_z(self, system):
        """'invalidates its remote copies of pages x and z, according to
        the write-invalidation notices piggybacked with a lock grant.'"""
        notices = system.nodes[P2].hooks.log.select(NoticeLogRecord)
        noticed_pages = {
            p for rec in notices for r in rec.records for p in r.pages
            if r.node == P1
        }
        assert {0, 2} <= noticed_pages  # x and z (y too -- P2 is y's home,
        # so the notice for y is logged but never invalidates anything)

    def test_p2_faults_only_on_x_and_z(self, system):
        """'Accessing page y on P2 causes no page fault because the home
        copy is always valid.'"""
        c = system.nodes[P2].stats.counters
        assert c["page_faults"] == 2

    def test_p2_flushes_diffs_of_x_and_z_but_not_y(self, system):
        """'At the time of lock release, P2 flushes diff of page x to P1
        and diff of page z to P3.'"""
        own = system.nodes[P2].hooks.log.select(OwnDiffLogRecord)
        diffed = {d.page for rec in own for d in rec.diffs}
        assert diffed == {0, 2}
        home_diffed = {d.page for rec in own for d in rec.home_diffs}
        assert home_diffed == {1}  # y, via our home-write extension


class TestFigure1bRecovery:
    def test_p2_recovery_replays_the_figure(self):
        """Figure 1(b): P2 crashes after its logs are flushed; recovery
        reads inva(x,z) + the (diff(y),1,A) record, fetches page z from
        P3 and page x plus diff(y) from P1."""
        cfg = ClusterConfig.ultra5(num_nodes=3)
        res = run_recovery_experiment(
            ScriptedFigure1(), cfg, "ccl", failed_nodes=(P2,), at_seal=1
        )
        assert res.ok, res.victims[0].mismatches
        c = res.victims[0].stats.counters
        # prefetch rebuilt/fetched exactly pages x and z; no faults
        assert c.get("pages_prefetched", 0) == 2
        assert c.get("replay_faults", 0) == 0
        # the home copy of y was brought forward with P1's logged diff
        assert c.get("replay_diffs_applied", 0) == 1
