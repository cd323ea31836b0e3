"""Quorum-replicated homes: placement, epoch fencing, byte identity.

The replication layer must be invisible at ``replication=1`` (the
exact unreplicated code path runs -- pinned here by comparing a
``failover``-protocol run at k=1 against plain CCL for every paper
app), deterministic in its placement, zone-aware when fault domains
exist, and split-brain-free under its epoch fence.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.config import ClusterConfig
from repro.core.chaos import ChaosFaults
from repro.core.replication import (
    MirrorState,
    ReplicaGroup,
    ReplicaUpdate,
    Replicator,
    plan_groups,
    validate_replication,
)
from repro.core.responder import SurvivorResponder
from repro.dsm.messages import PromoteRequest
from repro.errors import ConfigError, RecoveryError
from repro.harness.runner import run_application


class TestValidation:
    def test_replication_bounds(self):
        validate_replication(1, 4)
        validate_replication(4, 4)
        with pytest.raises(ConfigError, match="must be >= 1"):
            validate_replication(0, 4)
        with pytest.raises(ConfigError, match="exceeds the cluster"):
            validate_replication(5, 4)

    def test_zone_spec_rejects_unknown_zone(self):
        config = ClusterConfig.ultra5(num_nodes=4).with_zones(2)
        with pytest.raises(ConfigError, match="unknown zone 7"):
            ChaosFaults(zone_kill=7).validate(config, "ccl")
        with pytest.raises(ConfigError, match="unknown zone 9"):
            ChaosFaults(zone_partition=(0, 9)).validate(config, "ccl")

    def test_zone_spec_rejects_killing_every_node(self):
        config = ClusterConfig.ultra5(num_nodes=4)  # one implicit zone
        with pytest.raises(ConfigError, match="at least one zone"):
            ChaosFaults(zone_kill=0).validate(config, "ccl")


class TestPlacement:
    def test_ring_placement_without_zones(self):
        groups = plan_groups(4, 2)
        assert {p: g.followers for p, g in groups.items()} == {
            0: (1,), 1: (2,), 2: (3,), 3: (0,),
        }

    def test_k1_has_no_followers(self):
        groups = plan_groups(4, 1)
        assert all(g.followers == () for g in groups.values())

    def test_zone_aware_first_follower_is_out_of_zone(self):
        zones = ClusterConfig.ultra5(num_nodes=8).with_zones(2).zones
        groups = plan_groups(8, 2, zones)
        for p, g in groups.items():
            assert zones[g.followers[0]] != zones[p], (
                f"primary {p} (zone {zones[p]}) mirrored only in-zone"
            )

    def test_single_zone_kill_never_orphans_a_group(self):
        config = ClusterConfig.ultra5(num_nodes=8).with_zones(3)
        groups = plan_groups(8, 2, config.zones)
        for z in set(config.zones):
            dead = set(config.nodes_in_zone(z))
            for g in groups.values():
                alive = {g.primary, *g.followers} - dead
                assert alive, f"zone {z} wiped the whole group of {g.primary}"

    def test_placement_is_deterministic(self):
        zones = (0, 1, 0, 1, 0, 1)
        a = plan_groups(6, 3, zones)
        b = plan_groups(6, 3, zones)
        assert {p: g.followers for p, g in a.items()} == \
               {p: g.followers for p, g in b.items()}

    def test_primary_cannot_follow_itself(self):
        with pytest.raises(ConfigError, match="cannot follow"):
            ReplicaGroup(2, (1, 2))


class TestQuorumAndPromotion:
    def test_quorum_math(self):
        assert ReplicaGroup(0, (1,)).quorum == 2        # k=2: both
        assert ReplicaGroup(0, (1,)).acks_needed == 1
        assert ReplicaGroup(0, (1, 2)).quorum == 2      # k=3: majority
        assert ReplicaGroup(0, (1, 2)).acks_needed == 1

    def test_promote_bumps_epoch_once(self):
        g = ReplicaGroup(0, (1, 2))
        assert g.promote(1, dead=(0,)) == 1
        assert g.promoted == 1 and g.epoch == 1

    def test_duplicate_promotion_refused(self):
        g = ReplicaGroup(0, (1, 2))
        g.promote(1, dead=(0,))
        with pytest.raises(RecoveryError, match="duplicate promotion"):
            g.promote(2, dead=(0,))

    def test_non_follower_and_dead_candidates_refused(self):
        g = ReplicaGroup(0, (1, 2))
        with pytest.raises(RecoveryError, match="not a follower"):
            g.promote(3, dead=(0,))
        with pytest.raises(RecoveryError, match="dead follower"):
            g.promote(1, dead=(0, 1))


class _Node:
    def __init__(self, node_id):
        self.id = node_id


def _survivor(rep):
    """``rep``'s node as a phase-B responder that homes no pages."""
    node = SimpleNamespace(
        id=rep.node.id, cfg=SimpleNamespace(page_size=8), hooks=None,
        home_events={}, memory=None, replicator=rep,
        pagetable=SimpleNamespace(home_pages=lambda: []),
    )
    return SurvivorResponder(node, np.zeros(8, dtype=np.uint8))


class TestEpochFencing:
    """The follower-side fence: stale primaries are rejected, higher
    epochs win, and a stale promotion claim cannot regress the floor."""

    def _follower(self, primary=0):
        rep = Replicator(ReplicaGroup(1, (2,)))
        rep.bind(_Node(1))
        rep.mirrors[primary] = MirrorState(primary)
        return rep

    def test_stale_primary_update_rejected(self):
        rep = self._follower()
        rep.mirrors[0].epoch = 2  # fenced at epoch 2 already
        stale = ReplicaUpdate(0, 1, seal=5, upto=9, entries=[])
        assert rep.apply_update(stale) is False
        st = rep.mirrors[0]
        assert st.rejected == 1 and st.accepted == 0
        assert st.seal == 0 and st.upto == 0  # nothing applied

    def test_current_epoch_update_accepted(self):
        rep = self._follower()
        upd = ReplicaUpdate(0, 0, seal=3, upto=4, entries=[])
        assert rep.apply_update(upd, now=1.5) is True
        st = rep.mirrors[0]
        assert st.accepted == 1 and st.seal == 3 and st.upto == 4
        assert st.journal == [(3, 4, 1.5, [])]

    def test_fence_raises_floor_and_rejects_old_primary(self):
        rep = self._follower()
        assert rep.mirrors[0].admit(1) is True
        assert rep.apply_update(ReplicaUpdate(0, 0, 1, 1, [])) is False
        assert rep.apply_update(ReplicaUpdate(0, 1, 1, 1, [])) is True

    def test_stale_promotion_claim_refused(self):
        rep = self._follower()
        rep.mirrors[0].epoch = 3
        resp = _survivor(rep)
        ack = resp.serve_promote(PromoteRequest(0, candidate=2, epoch=2))
        assert ack.accepted is False
        assert resp.fences[0].epoch == 3  # floor never regresses
        assert resp.serve_promote(PromoteRequest(0, 2, epoch=4)).accepted
        assert resp.fences[0].epoch == 4
        assert rep.mirrors[0].epoch == 3  # phase A's floor is not written

    def test_fence_is_noop_for_non_followers(self):
        resp = _survivor(self._follower(primary=0))
        ack = resp.serve_promote(PromoteRequest(5, candidate=2, epoch=9))
        assert ack.accepted is True  # not mirroring node 5
        assert 5 not in resp.fences


class TestMirrorState:
    def test_apply_entries_needs_a_base_frame(self):
        st = MirrorState(0)
        from repro.memory.diff import Diff
        from repro.dsm.interval import VectorClock

        d = Diff(page=3, runs=((0, np.zeros(4, dtype=np.uint8)),))
        with pytest.raises(RecoveryError, match="no base frame"):
            st.apply_entries([(1, 0, 0, VectorClock.zero(2), [d])])


@pytest.mark.parametrize("app", ["fft3d", "mg", "shallow", "water"])
def test_replication_1_is_byte_identical_to_seed(app):
    """The failover protocol at k=1 runs the seed's CCL execution: no
    mirror traffic, no replicators, identical timing, wire traffic, and
    memory images.  (The one documented delta is on disk: failover logs
    content-free home writes as *empty* diff records so its metadata
    suffix is complete -- see the ``FAILOVER`` policy's ``empty_home_diffs``
    -- so its log may carry a few more framed bytes, never fewer.)"""
    config = ClusterConfig.ultra5(num_nodes=4)
    base, base_sys = run_application(app, "ccl", config, "test")
    repl, repl_sys = run_application(
        app, "failover", config, "test", replication=1,
    )
    assert repl.replication == 1
    assert repl.replication_stats == []
    assert all(
        getattr(n, "replicator", None) is None for n in repl_sys.nodes
    )
    assert repl.total_time == base.total_time
    assert repl.network_bytes == base.network_bytes
    assert repl.network_msgs == base.network_msgs
    assert repl.num_flushes == base.num_flushes
    assert repl.total_log_bytes >= base.total_log_bytes
    for a, b in zip(base_sys.nodes, repl_sys.nodes):
        assert np.array_equal(a.memory.buffer, b.memory.buffer)


def test_replicated_run_pays_for_its_mirrors():
    """k=2 must actually cost something: mirror traffic on the wire,
    quorum acks, and a run no faster than the unreplicated one."""
    config = ClusterConfig.ultra5(num_nodes=4).with_zones(2)
    base, _ = run_application("sor", "ccl", config, "test")
    repl, _ = run_application(
        "sor", "failover", config, "test", verify=False, replication=2,
    )
    assert repl.replication == 2
    assert len(repl.replication_stats) == 4
    assert sum(s["mirrors_sent"] for s in repl.replication_stats) > 0
    assert repl.network_bytes > base.network_bytes
    assert repl.total_time >= base.total_time
