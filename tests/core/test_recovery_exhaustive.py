"""Exhaustive crash-point sweep: recovery must be bit-exact at *every*
sealed interval of a real workload, under both protocols.

This complements the randomized tests with full coverage of one
program's crash points -- early crashes (mostly cold reconstruction),
mid-run crashes (delta reconstruction against advanced homes), and the
final crash (direct serves).
"""

import pytest

from repro.apps import make_app
from repro.config import ClusterConfig
from repro.core import run_recovery_experiment
from repro.dsm import DsmSystem

CFG = ClusterConfig.ultra5(num_nodes=4)


def total_seals(app_name, node, **kw):
    system = DsmSystem(make_app(app_name, **kw), CFG)
    system.run()
    return system.nodes[node].seal_count


@pytest.mark.parametrize("protocol", ["ml", "ccl"])
def test_every_crash_point_of_sor_recovers(protocol):
    kw = dict(n=32, iters=3)
    seals = total_seals("sor", 1, **kw)
    assert seals >= 6
    for seal in range(1, seals + 1):
        res = run_recovery_experiment(
            make_app("sor", **kw), CFG, protocol, failed_nodes=(1,), at_seal=seal
        )
        assert res.ok, (protocol, seal, res.victims[0].mismatches[:3])


@pytest.mark.parametrize("protocol", ["ml", "ccl"])
def test_every_crash_point_of_water_recovers(protocol):
    """Water adds lock windows: every seal includes mid-interval
    acquires replayed from window-tagged notices."""
    kw = dict(molecules=32, steps=2)
    seals = total_seals("water", 2, **kw)
    for seal in range(1, seals + 1):
        res = run_recovery_experiment(
            make_app("water", **kw), CFG, protocol, failed_nodes=(2,), at_seal=seal
        )
        assert res.ok, (protocol, seal, res.victims[0].mismatches[:3])


def test_every_node_recovers_at_midpoint():
    """Crash each rank in turn at the midpoint of MG."""
    kw = dict(n=16, cycles=2)
    for node in range(CFG.num_nodes):
        seals = total_seals("mg", node, **kw)
        res = run_recovery_experiment(
            make_app("mg", **kw), CFG, "ccl",
            failed_nodes=(node,), at_seal=max(1, seals // 2),
        )
        assert res.ok, (node, res.victims[0].mismatches[:3])
