"""Regression: a page early-diffed mid-interval, then touched again.

The 3-rank lock program of ``tests/obs/test_trace_contract.py`` makes a
write notice hit rank 1's dirty page: the page is diffed to its home
(part 1) and invalidated, but stays in the dirty set.  Rank 1 then
reads the page back (re-fetched CLEAN, no twin, nothing new to send) or
writes it again (re-fetched and re-twinned, a second diff at the seal).
Both must complete under every logging scheme with the sanitizer's two
passes clean, and every scheme with a log must recover every rank
bit-exactly at every seal.
"""

import pytest

from repro.analysis import audit_recoverability, check_trace
from repro.core.logging_base import SCHEMES
from repro.core import CrashProbe
from repro.core.recovery import VictimPlan, _replay_victims, compare_state
from repro.sim.trace import Tracer
from tests.obs.test_trace_contract import REACCESS, early_diff_app, early_diff_system

REPLAY_SCHEMES = [name for name, row in SCHEMES.items() if row.replay]


def _replication(scheme):
    return 2 if SCHEMES[scheme].promotes else 1


def _sanitized(system):
    check_trace(system.tracer).raise_if_failed()
    audit_recoverability(system).raise_if_failed()


@pytest.mark.parametrize("reaccess", sorted(REACCESS))
def test_completes_without_a_log(reaccess):
    system = early_diff_system("none", REACCESS[reaccess],
                               tracer=Tracer(enabled=True))
    assert system.run().completed
    _sanitized(system)
    assert system.nodes[1].stats.counters["early_diffs"] == 1


@pytest.mark.parametrize("scheme", REPLAY_SCHEMES)
@pytest.mark.parametrize("reaccess", sorted(REACCESS))
def test_recovers_every_rank_at_every_seal(reaccess, scheme):
    app = early_diff_app(REACCESS[reaccess])
    system = early_diff_system(scheme, REACCESS[reaccess],
                               replication=_replication(scheme),
                               tracer=Tracer(enabled=True))
    config = system.config
    probes = {r: CrashProbe(r, capture_all=True) for r in range(3)}
    for probe in probes.values():
        system.add_probe(probe)
    assert system.run().completed
    _sanitized(system)
    assert system.nodes[1].stats.counters["early_diffs"] == 1
    log = {v: system.nodes[v].hooks.log for v in probes}
    replayed = 0
    for victim, probe in probes.items():
        for seal, snapshot in sorted(probe.snapshots.items()):
            plan = VictimPlan(victim, log[victim], seal, snapshot=snapshot)
            replay = _replay_victims(app, config, scheme, system, [plan])[victim]
            assert compare_state(replay, snapshot, config.page_size) == [], (
                victim, seal)
            replayed += 1
    assert replayed >= 5
