"""Golden pin of the order and instant of every mailbox arrival.

``golden_delivery_order.json`` holds, for five 4-node ``shallow/ccl``
runs at test scale, a sha256 over every mailbox arrival as
``(time, src, dst, kind, seq)`` in arrival order, the injected-fault and
reliable-transport counters, and the final simulated time.  The cases
cover each way a frame reaches a mailbox: the plain path, the faulted
path under the chaos suite's default rates (drop, duplicate, delay,
reorder, with retransmits and acks), the same with a live kill, a WAN
zone profile with a partition window, and a controlled scheduler (the
model checker's labelled choice points).  A refactor of the message path
must leave every entry identical; times are hashed as ``repr`` of the
float, so the comparison is bit-exact.

Regenerate (only when a delivery order is *meant* to change) with::

    PYTHONPATH=src python tests/sim/test_delivery_golden.py
"""

import hashlib
import json
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro import ClusterConfig, DsmSystem, make_app, make_hooks_factory
from repro.core.chaos import DEFAULT_RATES
from repro.harness.scales import app_kwargs
from repro.sim.faults import FaultPlan
from repro.sim.resources import Mailbox

GOLDEN = Path(__file__).with_name("golden_delivery_order.json")

#: Live kill of node 2, about half-way through the faulted run (0.44 s).
KILL_AT = 0.2
#: Partition window between the two zones (the zoned run takes 0.25 s).
PARTITION = (0.1, 0.105)


def build(config=None, plan=None):
    """One 4-node shallow/ccl system at test scale."""
    return DsmSystem(
        make_app("shallow", **app_kwargs("shallow", "test")),
        config or ClusterConfig.ultra5(num_nodes=4),
        make_hooks_factory("ccl"), protocol_name="ccl", fault_plan=plan,
    )


def faulted_plan():
    return FaultPlan.uniform(3, **DEFAULT_RATES)


def zoned_system():
    config = ClusterConfig.ultra5(num_nodes=4).with_zones(2, wan_latency_s=2e-4)
    plan = FaultPlan(seed=3).partition(
        config.nodes_in_zone(0), config.nodes_in_zone(1), *PARTITION)
    return build(config, plan)


def controlled_system():
    """Every delivery a choice point; the scheduler takes the lowest label."""
    system = build()
    system.sim.choice_fn = lambda pending: min(
        pending, key=lambda c: (c.label.src, c.label.dst, c.label.link_seq))
    return system


CASES = {
    "fault-free": build,
    "faulted": lambda: build(plan=faulted_plan()),
    "faulted+kill": lambda: build(plan=faulted_plan().kill(2, KILL_AT)),
    "zones+partition": zoned_system,
    "controlled": controlled_system,
}


@contextmanager
def recorded_arrivals():
    """Record ``(time, src, dst, kind, seq)`` of every ``Mailbox.put``."""
    arrivals = []
    put = Mailbox.put

    def recording_put(self, msg):
        arrivals.append((self.sim.now, msg.src, msg.dst, msg.kind, msg.seq))
        put(self, msg)

    Mailbox.put = recording_put
    try:
        yield arrivals
    finally:
        Mailbox.put = put


def fingerprint(case: str) -> dict:
    """What the golden pins for one case."""
    system = CASES[case]()
    with recorded_arrivals() as arrivals:
        system.run()
    digest = hashlib.sha256()
    for t, src, dst, kind, seq in arrivals:
        digest.update(f"{t!r} {src} {dst} {kind} {seq}\n".encode())
    transport = system.transport
    return {
        "arrivals": len(arrivals),
        "sha256": digest.hexdigest(),
        "faults": system.fault_plan.summary() if system.fault_plan else None,
        "transport": transport.summary() if transport is not system.network else None,
        "now": system.sim.now,
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_delivery_order_matches_golden(case):
    golden = json.loads(GOLDEN.read_text())
    assert fingerprint(case) == golden[case]


def test_golden_has_no_stale_cases():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({k: fingerprint(k) for k in sorted(CASES)}, indent=1,
                   sort_keys=True) + "\n"
    )
