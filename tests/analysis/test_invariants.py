"""The trace-driven protocol invariant checker and race detector."""

import numpy as np
import pytest

from repro.analysis import check_trace
from repro.errors import InvariantViolationError
from repro.sim.trace import Ev, TraceEvent

from tests.analysis.conftest import build_system, raw_run


def homed_at_last(space, nprocs):
    return [nprocs - 1] * space.npages


class TestCleanRuns:
    def test_synchronized_program_has_zero_violations(self):
        def program(dsm):
            if dsm.rank == 0:
                yield from dsm.write("x")
                dsm.arr("x")[:] = np.arange(64)
            yield from dsm.barrier()
            yield from dsm.read("x")
            assert dsm.arr("x")[0] == 0

        system = build_system(program, nprocs=3)
        result = raw_run(system)
        assert result.completed
        report = check_trace(system.tracer)
        assert report.ok, [str(v) for v in report.violations]
        assert report.events_checked == len(system.tracer)
        assert report.intervals_seen > 0

    def test_lock_chain_has_zero_violations(self):
        def program(dsm):
            for _ in range(3):
                yield from dsm.acquire(0)
                yield from dsm.write("x", 0, 1)
                dsm.arr("x")[0] += 1
                yield from dsm.release(0)
            yield from dsm.barrier()

        system = build_system(program, nprocs=3, homes=homed_at_last)
        assert raw_run(system).completed
        report = check_trace(system.tracer)
        assert report.ok, [str(v) for v in report.violations]
        assert report.races_checked > 0  # same words, but ordered by the lock

    def test_report_raises_on_demand(self):
        report = check_trace([
            TraceEvent(0.0, 0, Ev.INTERVAL_END,
                       {"interval": 1, "vt": [2, 0], "pages": [], "writes": []}),
            TraceEvent(1.0, 0, Ev.INTERVAL_END,
                       {"interval": 2, "vt": [1, 0], "pages": [], "writes": []}),
        ])
        assert not report.ok
        with pytest.raises(InvariantViolationError, match="vt-monotonic"):
            report.raise_if_failed()


class TestSeededRace:
    def test_concurrent_overlapping_writers_are_reported(self):
        # ranks 0 and 1 write the same words of a page homed at rank 2,
        # with no synchronization between the writes: a data race.
        def program(dsm):
            if dsm.rank in (0, 1):
                yield from dsm.write("x", 0, 4)
                dsm.arr("x")[0:4] = dsm.rank + 1
            yield from dsm.barrier()

        system = build_system(program, nprocs=3, homes=homed_at_last)
        assert raw_run(system).completed
        report = check_trace(system.tracer)
        races = report.by_rule("data-race")
        assert races, "the seeded race went undetected"
        assert "page 0" in races[0].message
        assert "words" in races[0].message

    def test_disjoint_words_do_not_race(self):
        # same page, same interval, but non-overlapping word ranges:
        # false sharing, not a race.
        def program(dsm):
            if dsm.rank in (0, 1):
                lo = dsm.rank * 8
                yield from dsm.write("x", lo, lo + 8)
                dsm.arr("x")[lo:lo + 8] = dsm.rank + 1
            yield from dsm.barrier()

        system = build_system(program, nprocs=3, homes=homed_at_last)
        assert raw_run(system).completed
        report = check_trace(system.tracer)
        assert report.by_rule("data-race") == []

    def test_lock_ordered_writers_do_not_race(self):
        def program(dsm):
            yield from dsm.acquire(0)
            yield from dsm.write("x", 0, 4)
            dsm.arr("x")[0:4] = dsm.rank + 1
            yield from dsm.release(0)
            yield from dsm.barrier()

        system = build_system(program, nprocs=3, homes=homed_at_last)
        assert raw_run(system).completed
        report = check_trace(system.tracer)
        assert report.by_rule("data-race") == []


class TestTamperedTraces:
    """Unit-level: feed hand-built events and hit each rule."""

    def test_illegal_page_transition(self):
        report = check_trace([
            TraceEvent(0.0, 1, Ev.PAGE_STATE,
                       {"page": 2, "from": "invalid", "to": "dirty",
                        "reason": "write", "home": 0}),
        ])
        assert [v.rule for v in report.violations] == ["page-state"]

    def test_home_page_must_not_transition_on_home(self):
        report = check_trace([
            TraceEvent(0.0, 0, Ev.PAGE_STATE,
                       {"page": 2, "from": "clean", "to": "invalid",
                        "reason": "invalidate", "home": 0}),
        ])
        assert [v.rule for v in report.violations] == ["page-state"]

    def test_lock_acquired_without_notices(self):
        report = check_trace([
            TraceEvent(0.0, 0, Ev.LOCK_RELEASED, {"lock": 7, "vt": [3, 0]}),
            TraceEvent(1.0, 1, Ev.LOCK_ACQUIRED, {"lock": 7, "vt": [0, 1]}),
        ])
        assert [v.rule for v in report.violations] == ["lock-hb"]

    def test_ack_without_send(self):
        report = check_trace([
            TraceEvent(0.0, 0, Ev.DIFF_ACKED,
                       {"index": 3, "part": 0, "homes": [1]}),
        ])
        assert [v.rule for v in report.violations] == ["diff-ack-order"]

    def test_seal_before_ack(self):
        report = check_trace([
            TraceEvent(0.0, 0, Ev.DIFF_SEND,
                       {"home": 1, "index": 1, "part": 0,
                        "pages": [0], "vt": [1, 0]}),
            TraceEvent(1.0, 0, Ev.INTERVAL_END,
                       {"interval": 1, "vt": [1, 0], "pages": [0],
                        "writes": []}),
        ])
        assert [v.rule for v in report.violations] == ["diff-ack-order"]

    def test_fetch_content_differs_from_serve(self):
        report = check_trace([
            TraceEvent(0.0, 0, Ev.PAGE_SERVE,
                       {"page": 4, "to": 1, "crc": 0x1111, "version": [1, 0]}),
            TraceEvent(1.0, 1, Ev.PAGE_FETCH,
                       {"page": 4, "home": 0, "crc": 0x2222, "version": [1, 0]}),
        ])
        assert [v.rule for v in report.violations] == ["serve-fetch"]

    def test_fetch_without_serve(self):
        report = check_trace([
            TraceEvent(0.0, 1, Ev.PAGE_FETCH,
                       {"page": 4, "home": 0, "crc": 0x2222, "version": [1, 0]}),
        ])
        assert [v.rule for v in report.violations] == ["serve-fetch"]

    def test_barrier_exit_names_only_the_checkin_it_misses(self):
        checkins = [
            TraceEvent(0.0, 0, Ev.BARRIER_CHECKIN,
                       {"node": q, "episode": 0, "vt": vt})
            for q, vt in enumerate([[1, 0, 0], [0, 2, 0], [0, 0, 1]])
        ]
        good = TraceEvent(1.0, 0, Ev.BARRIER_EXIT,
                          {"barrier": 0, "episode": 0, "vt": [1, 2, 1]})
        bad = TraceEvent(1.0, 2, Ev.BARRIER_EXIT,
                         {"barrier": 0, "episode": 0, "vt": [1, 1, 1]})
        assert check_trace(checkins + [good]).ok
        report = check_trace(checkins + [good, bad])
        assert [v.rule for v in report.violations] == ["barrier-hb"]
        assert "node 1's check-in vt [0, 2, 0]" in report.violations[0].message

    def test_clock_covering_an_interval_without_its_history(self):
        seals = [
            # node 0 seals interval 0 having seen node 1's first interval
            TraceEvent(0.0, 1, Ev.INTERVAL_END,
                       {"interval": 0, "vt": [0, 1, 0], "pages": [], "writes": []}),
            TraceEvent(1.0, 0, Ev.INTERVAL_END,
                       {"interval": 0, "vt": [1, 1, 0], "pages": [], "writes": []}),
        ]
        closed = TraceEvent(2.0, 2, Ev.LOCK_ACQUIRED, {"lock": 0, "vt": [1, 1, 0]})
        torn = TraceEvent(2.0, 2, Ev.LOCK_ACQUIRED, {"lock": 0, "vt": [1, 0, 0]})
        assert check_trace(seals + [closed]).ok
        report = check_trace(seals + [torn])
        assert [v.rule for v in report.violations] == ["vt-causal-closure"]
        assert "interval 0 of node 0" in report.violations[0].message


class TestCausalClosureOnRealTraces:
    def test_forgetting_what_a_covered_interval_had_seen_is_caught(self):
        def program(dsm):
            for _ in range(3):
                yield from dsm.acquire(0)
                yield from dsm.write("x", 0, 1)
                dsm.arr("x")[0] += 1
                yield from dsm.release(0)
            yield from dsm.barrier()

        system = build_system(program, nprocs=3, homes=homed_at_last)
        assert raw_run(system).completed
        events = list(system.tracer.events)
        assert check_trace(events).ok
        # a grant down the lock chain: the acquirer's clock covers the
        # releaser's interval and, through it, an earlier holder's
        at, ev = next(
            (i, e) for i, e in enumerate(events)
            if e.event == Ev.LOCK_ACQUIRED and sum(c > 0 for c in e.detail["vt"]) > 1
        )
        caught = set()
        for q, covered in enumerate(ev.detail["vt"]):
            if covered:
                vt = list(ev.detail["vt"])
                vt[q] -= 1
                torn = TraceEvent(ev.time, ev.node, ev.event, {**ev.detail, "vt": vt})
                report = check_trace(events[:at] + [torn])
                assert not report.ok
                caught |= {v.rule for v in report.violations}
        assert "vt-causal-closure" in caught
