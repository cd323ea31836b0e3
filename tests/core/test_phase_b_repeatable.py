"""Phase B is a pure function of phase A: it writes nothing back.

Every scheme that recovers (each ``SCHEMES`` row with a replay engine,
and failover's promotion over replicated homes) is run twice on one
finished phase A.  Both recoveries must agree on everything they report,
and phase A must end them as it started: the same log records, the same
replica-group epochs and promotions, the same follower fencing floors.
"""

import pytest

from repro import ClusterConfig, DsmSystem, make_app, make_hooks_factory
from repro.core import CrashProbe
from repro.core.logging_base import SCHEMES
from repro.core.recovery import plan_victim, recover_victims
from repro.errors import RecoveryError, SimulationError
from repro.harness.scales import app_kwargs

CONFIG = ClusterConfig.ultra5(num_nodes=4)
VICTIM = 1
CASES = [(name, 1) for name, s in SCHEMES.items() if s.replay] + [("failover", 2)]


def _phase_a(protocol, replication):
    app = make_app("sor", **app_kwargs("sor", "test"))
    system = DsmSystem(app, CONFIG, make_hooks_factory(protocol),
                       replication=replication)
    probe = CrashProbe(VICTIM)
    system.add_probe(probe)
    system.run()
    probe.finalize()
    return system, probe


def _phase_a_state(system):
    """What phase B could write into: logs, groups, fencing floors."""
    return {
        "log_records": [len(n.hooks.log.persistent_records)
                        for n in system.nodes],
        "groups": {p: (g.epoch, g.promoted)
                   for p, g in system.replica_groups.items()},
        "floors": {(n.id, p): st.epoch
                   for n in system.nodes if n.replicator is not None
                   for p, st in n.replicator.mirrors.items()},
    }


def _outcome(rec):
    return {
        "at_seal": rec.at_seal,
        "recovery_time": rec.recovery_time,
        "breakdown": rec.stats.time.as_dict(),
        "counters": dict(rec.stats.counters),
        "mismatches": rec.mismatches,
        "promotion": rec.promotion,
    }


@pytest.mark.parametrize("protocol, replication", CASES,
                         ids=[f"{p}-k{k}" for p, k in CASES])
def test_recovering_one_phase_a_twice_is_repeatable_and_read_only(
    protocol, replication
):
    system, probe = _phase_a(protocol, replication)
    before = _phase_a_state(system)
    runs = []
    for _ in range(2):
        (rec,) = recover_victims(system.app, CONFIG, protocol, system,
                                 [plan_victim(system, probe)])
        runs.append(_outcome(rec))
        assert _phase_a_state(system) == before
    first, second = runs
    assert first == second
    assert not first["mismatches"]
    assert (first["promotion"] is not None) == (replication >= 2)


def test_failover_refused_by_a_raised_floor_leaves_it_raised():
    # ring placement at k=3: node 1's followers are 2 and 3; node 2 is
    # promoted and must fence node 3, whose floor is above the claim
    system, probe = _phase_a("failover", 3)
    followers = system.replica_groups[VICTIM].followers
    assert followers == (2, 3)
    for f in followers:
        system.nodes[f].replicator.mirrors[VICTIM].epoch = 5
    before = _phase_a_state(system)
    with pytest.raises(SimulationError, match=r"was fenced by \[3\]") as err:
        recover_victims(system.app, CONFIG, "failover", system,
                        [plan_victim(system, probe)])
    assert isinstance(err.value.__cause__, RecoveryError)
    assert _phase_a_state(system) == before
    assert before["floors"][(3, VICTIM)] == 5
