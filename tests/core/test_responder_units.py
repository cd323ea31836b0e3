"""Direct unit tests for the recovery responders and log queries."""

import numpy as np
import pytest

from repro.config import ClusterConfig
from repro.core import (
    FailedNodeResponder,
    SurvivorResponder,
    make_hooks_factory,
)
from repro.dsm import DsmSystem, VectorClock
from repro.dsm.messages import LogDiffRequest, ReconRequest
from repro.errors import RecoveryError
from tests.core.conftest import BarrierApp


@pytest.fixture(scope="module")
def phase_a():
    cfg = ClusterConfig.ultra5(num_nodes=4, page_size=256)
    system = DsmSystem(BarrierApp(iters=3), cfg, make_hooks_factory("ccl"))
    system.run()
    for node in system.nodes:  # make trailing volatile records queryable
        node.hooks.log.force_seal()
    return system


def some_home_page(system, node_id):
    node = system.nodes[node_id]
    for p, events in node.home_events.items():
        if events:
            return p, events
    pytest.skip("node homes no updated pages")


class TestSurvivorResponder:
    def test_direct_path_for_frozen_version(self, phase_a):
        node = phase_a.nodes[1]
        page, _events = some_home_page(phase_a, 1)
        resp = SurvivorResponder(node, phase_a.space.initial_image())
        frozen = node.pagetable.entry(page).version
        reply = resp.serve_recon(ReconRequest(0, [(page, frozen)]))
        item = reply.items[0]
        assert item.direct is not None
        assert item.version == frozen
        assert np.array_equal(item.direct, node.memory.page_bytes(page))

    def test_checkpoint_path_for_old_version(self, phase_a):
        node = phase_a.nodes[1]
        page, events = some_home_page(phase_a, 1)
        resp = SurvivorResponder(node, phase_a.space.initial_image())
        zero = VectorClock.zero(4)
        reply = resp.serve_recon(ReconRequest(0, [(page, zero)]))
        item = reply.items[0]
        assert item.direct is None and item.checkpoint is not None
        assert item.history == []  # nothing is dominated by zero

    def test_non_home_page_rejected(self, phase_a):
        node = phase_a.nodes[1]
        foreign = next(
            p for p in range(phase_a.space.npages) if phase_a.homes[p] != 1
        )
        resp = SurvivorResponder(node, phase_a.space.initial_image())
        with pytest.raises(RecoveryError):
            resp.serve_recon(
                ReconRequest(0, [(foreign, VectorClock.zero(4))])
            )

    def test_logdiff_exact_and_range_queries(self, phase_a):
        from repro.core import OwnDiffLogRecord

        node = phase_a.nodes[0]
        log = node.hooks.log
        own = [r for r in log.select(OwnDiffLogRecord) if r.diffs]
        assert own
        target = own[0]
        page = target.diffs[0].page
        resp = SurvivorResponder(node, phase_a.space.initial_image())
        reply, nbytes = resp.serve_logdiff(
            LogDiffRequest(1, wants=[(page, target.vt_index, 0)])
        )
        assert len(reply.entries) == 1
        assert nbytes == reply.entries[0][0].nbytes
        # range query over the full history returns at least as much
        reply2, _n = resp.serve_logdiff(
            LogDiffRequest(1, ranges=[(page, 0, 99)])
        )
        assert len(reply2.entries) >= 1


class TestFailedNodeResponder:
    def test_history_rederived_from_log(self, phase_a):
        node = phase_a.nodes[1]
        page, events = some_home_page(phase_a, 1)
        failed = FailedNodeResponder(node, phase_a.space.initial_image(),
                                     node.hooks.log)
        frozen = node.pagetable.entry(page).version
        reply = failed.serve_recon(ReconRequest(0, [(page, frozen)]))
        item = reply.items[0]
        # no frozen-copy fast path: memory is "lost"
        assert item.direct is None and item.checkpoint is not None
        # log-derived history covers the in-memory event history
        logged = set(item.history)
        in_memory = {(w, i, part) for (w, i, part, _vt) in events}
        assert in_memory <= logged
