"""Regression: a page early-diffed mid-interval, then touched again.

The ``early-diff`` preset (:func:`repro.analysis.programs.early_diff`)
makes a write notice hit rank 1's dirty page: the page is diffed to its
home (part 1) and invalidated, but stays in the dirty set.  Rank 1 then
reads the page back (re-fetched CLEAN, no twin, nothing new to send) or
writes it again (re-fetched and re-twinned, a second diff at the seal).
Both must complete under every logging scheme with the sanitizer's two
passes clean, and every scheme with a log must recover every rank
bit-exactly at every crash point, the end of the run included.
"""

import pytest

from repro.analysis import audit_recoverability, check_trace
from repro.analysis.modelcheck import check_crash_points
from repro.analysis.programs import early_diff, program_system
from repro.core.logging_base import SCHEMES
from repro.core import CrashProbe
from repro.sim.trace import Tracer

REPLAY_SCHEMES = [name for name, row in SCHEMES.items() if row.replay]


def _replication(scheme):
    return 2 if SCHEMES[scheme].promotes else 1


def _sanitized(system):
    check_trace(system.tracer).raise_if_failed()
    audit_recoverability(system).raise_if_failed()


@pytest.mark.parametrize("reaccess", ["reread", "rewrite"])
def test_completes_without_a_log(reaccess):
    system = program_system(early_diff(reaccess), "none",
                            tracer=Tracer(enabled=True))
    assert system.run().completed
    _sanitized(system)
    assert system.nodes[1].stats.counters["early_diffs"] == 1


@pytest.mark.parametrize("scheme", REPLAY_SCHEMES)
@pytest.mark.parametrize("reaccess", ["reread", "rewrite"])
def test_recovers_every_rank_at_every_seal(reaccess, scheme):
    system = program_system(early_diff(reaccess), scheme,
                            replication=_replication(scheme),
                            tracer=Tracer(enabled=True))
    probes = [CrashProbe(r, capture_all=True) for r in range(3)]
    for probe in probes:
        system.add_probe(probe)
    assert system.run().completed
    _sanitized(system)
    assert system.nodes[1].stats.counters["early_diffs"] == 1
    recovered = 0  # crash points, counting those identical to one replayed
    for probe in probes:
        failures, checks, dupes = check_crash_points(
            system, probe, scheme, after_run=True)
        assert failures == [], (probe.node, failures)
        recovered += checks + dupes
    assert recovered >= 5
