"""Determinism guards.

Message logging's correctness rests on piecewise-deterministic
execution; the simulator makes the whole system deterministic, and
these tests pin that property for every experiment type, so a future
change that introduces ordering nondeterminism (set iteration, dict
ordering on ids, unseeded randomness) fails loudly.
"""

import pytest

from repro.apps import make_app
from repro.config import ClusterConfig
from repro.core import (
    make_hooks_factory,
    run_recovery_experiment,
)
from repro.dsm import DsmSystem

CFG = ClusterConfig.ultra5(num_nodes=4)


def test_runs_identical_across_repetitions():
    results = []
    for _ in range(2):
        app = make_app("water", molecules=32, steps=2)
        system = DsmSystem(app, CFG, make_hooks_factory("ccl"))
        results.append(system.run())
    a, b = results
    assert a.total_time == b.total_time
    assert a.network_bytes == b.network_bytes
    assert a.total_log_bytes == b.total_log_bytes
    assert a.num_flushes == b.num_flushes
    for sa, sb in zip(a.node_stats, b.node_stats):
        assert sa.counters == sb.counters


@pytest.mark.parametrize("protocol", ["ml", "ccl"])
def test_recovery_identical_across_repetitions(protocol):
    times, stats = [], []
    for _ in range(2):
        res = run_recovery_experiment(
            make_app("sor", n=32, iters=3), CFG, protocol, failed_nodes=(1,)
        )
        assert res.ok
        times.append(res.recovery_time)
        stats.append(dict(res.victims[0].stats.counters))
    assert times[0] == times[1]
    assert stats[0] == stats[1]


def test_multi_recovery_identical_across_repetitions():
    outcomes = []
    for _ in range(2):
        res = run_recovery_experiment(
            make_app("sor", n=32, iters=3), CFG, "ccl", failed_nodes=(1, 2)
        )
        assert res.ok
        outcomes.append([(v.victim, v.recovery_time) for v in res.victims])
    assert outcomes[0] == outcomes[1]

