"""Recovery on the real workloads: the paper's experiment, end to end.

Crashing a node in each of the four evaluation applications and
replaying from the log must reproduce its state exactly, for both
logging protocols -- this is the strongest system-level test in the
repository (full protocol + real numerical kernels + recovery).
"""

import pytest

from repro.apps import make_app
from repro.config import ClusterConfig
from repro.core import run_recovery_experiment
from repro.dsm import DsmSystem

CFG = ClusterConfig.ultra5(num_nodes=8)


@pytest.mark.parametrize("name", ["fft3d", "mg", "shallow", "water", "sor"])
@pytest.mark.parametrize("protocol", ["ml", "ccl"])
def test_workload_recovery_is_bit_exact(name, protocol):
    res = run_recovery_experiment(
        make_app(name), CFG, protocol, failed_nodes=(3,)
    )
    assert res.ok, (name, protocol, res.victims[0].mismatches[:5])


@pytest.mark.parametrize("name", ["fft3d", "water"])
def test_recovery_beats_reexecution_on_workloads(name):
    t_reexec = DsmSystem(make_app(name), CFG).run().total_time
    for protocol in ("ml", "ccl"):
        res = run_recovery_experiment(make_app(name), CFG, protocol, failed_nodes=(3,))
        assert res.ok
        assert res.recovery_time < t_reexec, (name, protocol)


def test_ccl_recovery_faster_than_ml_on_fft():
    ml = run_recovery_experiment(make_app("fft3d"), CFG, "ml", failed_nodes=(3,))
    ccl = run_recovery_experiment(make_app("fft3d"), CFG, "ccl", failed_nodes=(3,))
    assert ml.ok and ccl.ok
    assert ccl.recovery_time < ml.recovery_time


def test_mid_run_crash_recovers_on_mg():
    res = run_recovery_experiment(
        make_app("mg"), CFG, "ccl", failed_nodes=(2,), at_seal=10
    )
    assert res.ok, res.victims[0].mismatches[:5]


def test_water_lock_heavy_recovery_windows():
    """Water's mid-interval acquires exercise window-tagged replay."""
    for protocol in ("ml", "ccl"):
        res = run_recovery_experiment(make_app("water"), CFG, protocol, failed_nodes=(5,))
        assert res.ok, (protocol, res.victims[0].mismatches[:5])
        assert res.victims[0].stats.counters.get("lock_acquires", 0) > 0
