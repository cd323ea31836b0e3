"""Unit tests for the switched-Ethernet model."""

import pytest

from repro.config import NetworkConfig
from repro.dsm.reliable import ReliableTransport
from repro.errors import SimulationError
from repro.sim import FaultPlan, NetMessage, Network, Simulator


def make_net(sim, **kw):
    return Network(sim, NetworkConfig(**kw), num_nodes=4)


def test_message_delivery_time_matches_model():
    sim = Simulator()
    cfg = NetworkConfig(
        latency_s=100e-6, bandwidth_bps=1e6, send_overhead_s=10e-6, recv_overhead_s=5e-6
    )
    net = Network(sim, cfg, num_nodes=2)
    arrivals = []

    def sender():
        yield from net.send(NetMessage(src=0, dst=1, kind="x", size=1000))

    def receiver():
        msg = yield net.mailbox(1).get()
        arrivals.append((msg.kind, sim.now))

    sim.spawn(sender(), name="s")
    sim.spawn(receiver(), name="r")
    sim.run()
    wire = 1000 + Network.HEADER_BYTES
    expected = 10e-6 + wire / 1e6 + 100e-6 + 5e-6
    assert arrivals[0][0] == "x"
    assert arrivals[0][1] == pytest.approx(expected)


def test_sender_nic_serialises_back_to_back_sends():
    sim = Simulator()
    cfg = NetworkConfig(latency_s=0.0, bandwidth_bps=1e3, send_overhead_s=0.0, recv_overhead_s=0.0)
    net = Network(sim, cfg, num_nodes=3)
    arrivals = []

    def sender():
        yield from net.send(NetMessage(src=0, dst=1, kind="a", size=1000 - Network.HEADER_BYTES))
        yield from net.send(NetMessage(src=0, dst=2, kind="b", size=1000 - Network.HEADER_BYTES))

    def receiver(node):
        msg = yield net.mailbox(node).get()
        arrivals.append((msg.kind, sim.now))

    sim.spawn(sender(), name="s")
    sim.spawn(receiver(1), name="r1")
    sim.spawn(receiver(2), name="r2")
    sim.run()
    # each frame takes 1s on the shared sender NIC -> second arrives at 2s
    assert sorted(arrivals) == [("a", pytest.approx(1.0)), ("b", pytest.approx(2.0))]


def test_different_senders_do_not_contend():
    sim = Simulator()
    cfg = NetworkConfig(latency_s=0.0, bandwidth_bps=1e3, send_overhead_s=0.0, recv_overhead_s=0.0)
    net = Network(sim, cfg, num_nodes=4)
    arrivals = []

    def sender(src, dst, kind):
        yield from net.send(NetMessage(src=src, dst=dst, kind=kind, size=1000 - Network.HEADER_BYTES))

    def receiver(node):
        msg = yield net.mailbox(node).get()
        arrivals.append((msg.kind, sim.now))

    sim.spawn(sender(0, 2, "a"), name="s0")
    sim.spawn(sender(1, 3, "b"), name="s1")
    sim.spawn(receiver(2), name="r2")
    sim.spawn(receiver(3), name="r3")
    sim.run()
    # switched fabric: both frames land at 1s
    assert [t for _, t in sorted(arrivals)] == [pytest.approx(1.0), pytest.approx(1.0)]


def test_traffic_statistics_track_bytes_and_kinds():
    sim = Simulator()
    net = make_net(sim)

    def sender():
        yield from net.send(NetMessage(src=0, dst=1, kind="diff", size=100))
        yield from net.send(NetMessage(src=0, dst=2, kind="diff", size=200))
        yield from net.send(NetMessage(src=1, dst=0, kind="page", size=4096))

    def sink(node, n):
        for _ in range(n):
            yield net.mailbox(node).get()

    sim.spawn(sender(), name="s")
    sim.spawn(sink(1, 1), name="r1")
    sim.spawn(sink(2, 1), name="r2")
    sim.spawn(sink(0, 1), name="r0")
    sim.run()
    h = Network.HEADER_BYTES
    assert net.bytes_sent[0] == 300 + 2 * h
    assert net.bytes_sent[1] == 4096 + h
    assert net.msgs_by_kind == {"diff": 2, "page": 1}
    assert net.bytes_by_kind["page"] == 4096 + h
    assert net.total_bytes == 300 + 4096 + 3 * h


def test_send_validates_endpoints():
    sim = Simulator()
    net = make_net(sim)
    with pytest.raises(SimulationError):
        net.post(NetMessage(src=0, dst=9, kind="x", size=1))
    with pytest.raises(SimulationError):
        net.post(NetMessage(src=2, dst=2, kind="x", size=1))
    with pytest.raises(SimulationError):
        net.post(NetMessage(src=0, dst=1, kind="x", size=-5))


def test_round_trip_estimate_matches_measured_round_trip():
    sim = Simulator()
    cfg = NetworkConfig()
    net = Network(sim, cfg, num_nodes=2)
    times = []

    def client():
        t0 = sim.now
        yield from net.send(NetMessage(src=0, dst=1, kind="req", size=64))
        yield net.mailbox(0).get(lambda m: m.kind == "rep")
        times.append(sim.now - t0)

    def server():
        yield net.mailbox(1).get(lambda m: m.kind == "req")
        yield from net.send(NetMessage(src=1, dst=0, kind="rep", size=4096))

    sim.spawn(client(), name="c")
    sim.spawn(server(), name="s")
    sim.run()
    assert times[0] == pytest.approx(net.round_trip_estimate(64, 4096))


def test_delivered_at_stamped_on_message():
    sim = Simulator()
    net = make_net(sim)
    msg = NetMessage(src=0, dst=1, kind="x", size=10)

    def receiver():
        m = yield net.mailbox(1).get()
        assert m.delivered_at == sim.now

    sim.spawn(receiver(), name="r")
    net.post(msg)
    sim.run()
    assert msg.delivered_at > 0


def test_delivered_at_keeps_the_first_arrival_under_duplication():
    # every frame lands twice; the reliable transport hands the first
    # copy to the mailbox and drops the second, which must not restamp it
    sim = Simulator()
    net = Network(sim, NetworkConfig(), num_nodes=2,
                  fault_plan=FaultPlan.uniform(0, dup=1.0))
    transport = ReliableTransport(net, sim)
    received = []

    def sender():
        for i in range(20):
            yield from transport.send(
                NetMessage(src=0, dst=1, kind="x", size=64, payload=i))

    def receiver():
        while True:
            m = yield net.mailbox(1).get()
            received.append((m, sim.now))

    sim.spawn(sender(), name="s")
    rx = sim.spawn(receiver(), name="r")
    sim.run(detect_deadlock=False)
    rx.kill()
    assert [m.payload for m, _t in received] == list(range(20))
    assert transport.dups_dropped == 20
    assert [m.delivered_at for m, _t in received] == [t for _m, t in received]
