"""Golden pin of recovery's simulated results, single == multi, docs == table.

``golden_recovery_contract.json`` holds, for every recovery scheme on
two real applications, the exact simulated outputs of the public entry
points: recovery time, crash seal, the recovery-time breakdown and the
replay counters (for promotion also the promoted rank, epoch and
replayed/refetched counts), and one run each of the two-victim, the
arbitrary-instant + disk-fault and the checkpointed drivers.  A refactor
of the recovery modules must leave every number bit-identical; floats
round-trip exactly through JSON, so the comparison is ``==``.

Regenerate (only when a simulated result is *meant* to change) with::

    PYTHONPATH=src python tests/core/test_recovery_contract.py
"""

import json
from pathlib import Path

import pytest

from repro import ClusterConfig, DsmSystem, make_app, make_hooks_factory
from repro.core import (
    CrashProbe,
    run_multi_recovery_experiment,
    run_recovery_experiment,
)
from repro.core.chaos import DEFAULT_RATES
from repro.core.logging_base import SCHEMES
from repro.core.recovery import plan_victim
from repro.core.failover_recovery import (
    recover_via_failover,
    run_failover_experiment,
)
from repro.harness.scales import app_kwargs
from repro.sim.faults import DiskFaultPlan, FaultPlan

GOLDEN = Path(__file__).with_name("golden_recovery_contract.json")

APPS = ("sor", "water")
#: ``failover`` here is classic replay over a failover-format log.
REPLAY_SCHEMES = ("ml", "ccl", "adaptive", "failover")


def _app(name):
    return make_app(name, **app_kwargs(name, "test"))


def _config():
    return ClusterConfig.ultra5(num_nodes=4)


def _replay_entry(res):
    return {
        "ok": res.ok,
        "at_seal": res.at_seal,
        "recovery_time": res.recovery_time,
        "time": res.replay_stats.time.as_dict(),
        "counters": dict(res.replay_stats.counters),
    }


def _promotion_entry(res):
    return {
        "ok": res.ok,
        "at_seal": res.at_seal,
        "recovery_time": res.recovery_time,
        "detection_time": res.detection_time,
        "breakdown": res.breakdown,
        "promoted": res.promoted,
        "epoch": res.epoch,
        "mirror_seal": res.mirror_seal,
        "replayed_events": res.replayed_events,
        "refetched_diffs": res.refetched_diffs,
        "time": res.replay_stats.time.as_dict(),
        "counters": dict(res.replay_stats.counters),
    }


def _multi_entry(res):
    return {
        "ok": res.ok,
        "at_seals": {str(f): s for f, s in res.at_seals.items()},
        "recovery_times": {str(f): t for f, t in res.recovery_times.items()},
        "free_untils": {str(f): s for f, s in res.free_untils.items()},
        "salvage": {str(f): r.describe() for f, r in res.salvage.items()},
    }


def _at_time_run(seed):
    """Two victims crashed at one instant over a faulty disk: seed 2
    quarantines a corrupt segment on node 1 (victims stop at different
    seals), seed 9 recovers records from both victims' torn tails."""
    horizon = run_recovery_experiment(
        _app("sor"), _config(), "ccl", failed_node=0
    ).phase_a.total_time
    return run_multi_recovery_experiment(
        _app("sor"), _config(), "ccl", failed_nodes=(1, 3),
        at_time=0.8 * horizon,
        disk_fault_plan=DiskFaultPlan.uniform(seed, torn_tail=0.5, bitrot=0.02),
    )


def _lagging_mirror_promotion():
    """Promotion at an instant where message faults left the mirror
    behind the durable log, so the metadata suffix is scanned and one
    diff is re-fetched (the seal-aligned experiments never replay)."""
    config = _config()
    system = DsmSystem(
        _app("water"), config, make_hooks_factory("failover"),
        replication=2, fault_plan=FaultPlan.uniform(2, **DEFAULT_RATES),
    )
    probe = CrashProbe(1, capture_all=True)
    system.add_probe(probe)
    t = 0.3 * system.run().total_time
    plan = plan_victim(system, probe, t)
    promoted, epoch, mirror, breakdown, stats, replayed, refetched = (
        recover_via_failover(
            config, system, 1, plan.plog, plan.stop_at, at_time=t
        )
    )
    return {
        "stop_at": plan.stop_at,
        "promoted": promoted,
        "epoch": epoch,
        "mirror_seal": mirror.seal,
        "breakdown": breakdown,
        "replayed_events": replayed,
        "refetched_diffs": refetched,
        "time": stats.time.as_dict(),
    }


CASES = {}
for _name in APPS:
    for _scheme in REPLAY_SCHEMES:
        CASES[f"replay/{_scheme}/{_name}"] = (
            lambda n=_name, s=_scheme: _replay_entry(
                run_recovery_experiment(_app(n), _config(), s, failed_node=1)
            )
        )
    CASES[f"promotion/{_name}"] = lambda n=_name: _promotion_entry(
        run_failover_experiment(_app(n), _config(), failed_node=1)
    )
CASES["two-victim/ccl/sor"] = lambda: _multi_entry(
    run_multi_recovery_experiment(
        _app("sor"), _config(), "ccl", failed_nodes=(0, 2)
    )
)
CASES["at-time+quarantine/ccl/sor"] = lambda: _multi_entry(_at_time_run(2))
CASES["at-time+torn-tail/ccl/sor"] = lambda: _multi_entry(_at_time_run(9))
CASES["promotion-lagging-mirror/water"] = _lagging_mirror_promotion
CASES["checkpointed/ccl/sor"] = lambda: _replay_entry(
    run_recovery_experiment(
        _app("sor"), _config(), "ccl", failed_node=0, checkpoint_every=2
    )
)


@pytest.mark.parametrize("case", sorted(CASES))
def test_simulated_results_match_golden(case):
    golden = json.loads(GOLDEN.read_text())
    assert CASES[case]() == golden[case]


def test_golden_has_no_stale_cases():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


@pytest.mark.parametrize("app, scheme, checkpoint_every, victim", [
    ("sor", "ml", None, 0),
    ("sor", "ccl", 2, 2),
    ("water", "ccl", None, 2),
    ("water", "adaptive", 2, 0),
    ("shallow", "failover", None, 0),
    ("shallow", "ml", 2, 2),
])
def test_single_victim_is_multi_victim_with_one_victim(
    app, scheme, checkpoint_every, victim
):
    """The two drivers share one victim loop and must not fork again."""
    single = run_recovery_experiment(
        _app(app), _config(), scheme, failed_node=victim,
        checkpoint_every=checkpoint_every,
    )
    multi = run_multi_recovery_experiment(
        _app(app), _config(), scheme, failed_nodes=(victim,),
        checkpoint_every=checkpoint_every,
    )
    assert single.ok and multi.ok
    assert single.recovery_time == multi.recovery_times[victim]
    assert single.at_seal == multi.at_seals[victim]


def _doc_table_row(label):
    """Cells of one row of docs/recovery.md's scheme comparison table."""
    doc = Path(__file__).parents[2] / "docs" / "recovery.md"
    for line in doc.read_text().splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if line.startswith("|") and cells[0] == label:
            return cells[1:]
    raise AssertionError(f"docs/recovery.md has no table row {label!r}")


def test_docs_comparison_table_matches_scheme_table():
    """Documented <=> registered: one column per recoverable scheme, and
    the breakdown-component row lists exactly what the table registers."""
    recoverable = [s for s in SCHEMES.values() if s.replay is not None]
    assert _doc_table_row("scheme") == [f"`{s.name}`" for s in recoverable]
    documented = [
        cell.replace("`", "").split(", ")
        for cell in _doc_table_row("breakdown components")
    ]
    assert documented == [list(s.components) for s in recoverable]


@pytest.mark.parametrize("case", sorted(
    c for c in CASES if c.startswith(("replay/", "checkpointed/", "promotion"))
))
def test_recovery_charges_only_registered_components(case):
    """Registered <=> emitted, on the golden's own runs."""
    row = SCHEMES["failover" if case.startswith("promotion") else case.split("/")[1]]
    if row.promotes and case.startswith("replay/"):
        row = SCHEMES["ccl"]  # replaying its log is the quorum-loss fallback
    charged = json.loads(GOLDEN.read_text())[case]["time"]
    assert set(charged) <= set(row.components)


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({k: CASES[k]() for k in sorted(CASES)}, indent=1,
                   sort_keys=True) + "\n"
    )
