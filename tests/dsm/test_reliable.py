"""Unit tests for the reliable-delivery transport."""

import pytest

from repro.config import NetworkConfig
from repro.dsm.reliable import (
    ReliableTransport,
    RetransmitPolicy,
    UNSEQUENCED_KINDS,
)
from repro.sim import FaultPlan, LinkFaults, NetMessage, Network, Simulator


def build(plan, num_nodes=4, policy=None, **net_kw):
    sim = Simulator()
    net = Network(sim, NetworkConfig(**net_kw), num_nodes=num_nodes,
                  fault_plan=plan)
    return sim, net, ReliableTransport(net, sim, policy=policy)


def pump(sim, transport, payloads, src=0, dst=1, kind="x"):
    """Send ``payloads`` over one link; return them in arrival order."""
    got = []

    def sender():
        for p in payloads:
            yield from transport.send(
                NetMessage(src=src, dst=dst, kind=kind, size=64, payload=p)
            )

    def receiver():
        while True:
            m = yield transport.mailbox(dst).get()
            got.append(m.payload)

    sim.spawn(sender(), name="s")
    rx = sim.spawn(receiver(), name="r")
    sim.run(detect_deadlock=False)
    rx.kill()
    return got


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetransmitPolicy(timeout_s=0)
        with pytest.raises(ValueError):
            RetransmitPolicy(backoff=0.5)
        with pytest.raises(ValueError):
            RetransmitPolicy(max_retries=-1)


class TestReliableDelivery:
    def test_exactly_once_in_order_under_drops(self):
        sim, net, tr = build(FaultPlan.uniform(0, drop=0.4))
        got = pump(sim, tr, list(range(50)))
        assert got == list(range(50))
        assert tr.retransmits > 0
        assert tr.summary()["unacked_in_flight"] == 0

    def test_exactly_once_under_duplication(self):
        sim, net, tr = build(FaultPlan.uniform(0, dup=0.8))
        got = pump(sim, tr, list(range(50)))
        assert got == list(range(50))
        assert tr.dups_dropped > 0

    def test_fifo_restored_under_reordering(self):
        sim, net, tr = build(FaultPlan.uniform(2, reorder=0.6))
        got = pump(sim, tr, list(range(50)))
        assert got == list(range(50))
        assert tr.held_frames > 0

    def test_everything_at_once(self):
        sim, net, tr = build(
            FaultPlan.uniform(5, drop=0.2, dup=0.2, delay=0.3, reorder=0.3)
        )
        got = pump(sim, tr, list(range(80)))
        assert got == list(range(80))

    def test_links_sequence_independently(self):
        sim, net, tr = build(FaultPlan.uniform(1, drop=0.3))
        got = []

        def sender(src, dst, tag):
            for i in range(20):
                yield from tr.send(
                    NetMessage(src=src, dst=dst, kind="x", size=32,
                               payload=(tag, i))
                )

        def receiver(dst):
            while True:
                m = yield tr.mailbox(dst).get()
                got.append(m.payload)

        sim.spawn(sender(0, 2, "a"), name="sa")
        sim.spawn(sender(1, 2, "b"), name="sb")
        rx = sim.spawn(receiver(2), name="r")
        sim.run(detect_deadlock=False)
        rx.kill()
        assert [i for t, i in got if t == "a"] == list(range(20))
        assert [i for t, i in got if t == "b"] == list(range(20))

    def test_unsequenced_kinds_bypass_the_machinery(self):
        sim, net, tr = build(FaultPlan.uniform(0, drop=1.0))
        for kind in sorted(UNSEQUENCED_KINDS - {"rel_ack"}):
            tr.post(NetMessage(src=0, dst=1, kind=kind, size=8))
        sim.run(detect_deadlock=False)
        # every frame was dropped and nothing retransmitted them
        assert tr.retransmits == 0
        assert not tr._pending

    def test_lost_acks_self_heal(self):
        # acks from 1 to 0 always die; data still goes exactly-once and
        # the sender eventually abandons after bounded retries
        plan = FaultPlan(seed=0, links={(1, 0): LinkFaults(drop=1.0)})
        policy = RetransmitPolicy(max_retries=3)
        sim, net, tr = build(plan, policy=policy)
        got = pump(sim, tr, [1, 2, 3])
        assert got == [1, 2, 3]
        assert tr.dups_dropped > 0      # retransmits arrived as dups
        assert tr.abandoned == 3        # never acked, gave up cleanly

    def test_dead_peer_bounded_retries(self):
        plan = FaultPlan(seed=0).kill(1, 0.0)
        policy = RetransmitPolicy(max_retries=2)
        sim, net, tr = build(plan, policy=policy)
        got = pump(sim, tr, [1, 2])
        assert got == []
        assert tr.abandoned == 2
        assert tr.retransmits == 4  # 2 frames x max_retries

    def test_delegates_to_network(self):
        sim, net, tr = build(FaultPlan.uniform(0, drop=0.1))
        assert tr.num_nodes == net.num_nodes
        assert tr.config is net.config
        assert tr.mailbox(2) is net.mailbox(2)
