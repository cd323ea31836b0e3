"""Golden pin of recovery's simulated results, driver == direct path, docs == table.

``golden_recovery_contract.json`` holds, for every recovery scheme on
two real applications, the exact simulated outputs of the experiment
driver: recovery time, crash seal, the recovery-time breakdown and the
replay counters (for promotion also the promoted rank, epoch and
replayed/refetched counts), one run each of a two-victim, an
arbitrary-instant + disk-fault and a checkpointed experiment, restore-mode
replay over a truncated log, and the ``early-diff`` preset's re-read and
re-write variants.  A refactor of the recovery modules must leave every
number bit-identical; floats round-trip exactly through JSON, so the
comparison is ``==``.

Regenerate (only when a simulated result is *meant* to change) with::

    PYTHONPATH=src python tests/core/test_recovery_contract.py
"""

import json
from pathlib import Path

import pytest

from repro import ClusterConfig, DsmSystem, make_app, make_hooks_factory
from repro.analysis.programs import early_diff, program_system
from repro.core import (
    Checkpointer,
    CrashProbe,
    compare_state,
    replay_failed_node,
    run_recovery_experiment,
)
from repro.core.chaos import DEFAULT_RATES
from repro.core.logging_base import SCHEMES
from repro.core.recovery import plan_victim
from repro.core.failover_recovery import compare_mirror, recover_via_failover
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
    (v,) = res.victims
    return {
        "ok": res.ok,
        "at_seal": v.at_seal,
        "recovery_time": res.recovery_time,
        "time": v.stats.time.as_dict(),
        "counters": dict(v.stats.counters),
    }


def _promotion_entry(res):
    (v,) = res.victims
    p = v.promotion
    return {
        "ok": res.ok,
        "at_seal": v.at_seal,
        "recovery_time": res.recovery_time,
        "detection_time": p.detection_time,
        "breakdown": {
            c: v.stats.time.get(c) for c in SCHEMES["failover"].components
        },
        "promoted": p.promoted,
        "epoch": p.epoch,
        "mirror_seal": p.mirror_seal,
        "replayed_events": p.replayed_events,
        "refetched_diffs": p.refetched_diffs,
        "time": v.stats.time.as_dict(),
        "counters": dict(v.stats.counters),
    }


def _multi_entry(res):
    return {
        "ok": res.ok,
        "at_seals": {str(v.victim): v.at_seal for v in res.victims},
        "recovery_times": {str(v.victim): v.recovery_time for v in res.victims},
        "free_untils": {str(v.victim): v.free_until for v in res.victims},
        "salvage": {
            str(v.victim): v.salvage.describe()
            for v in res.victims if v.salvage is not None
        },
    }


def _at_time_run(seed):
    """Two victims crashed at one instant over a faulty disk: seed 2
    quarantines a corrupt segment on node 1 (victims stop at different
    seals), seed 9 recovers records from both victims' torn tails."""
    horizon = run_recovery_experiment(
        _app("sor"), _config(), "ccl", failed_nodes=(0,)
    ).phase_a.total_time
    return run_recovery_experiment(
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
                run_recovery_experiment(_app(n), _config(), s, failed_nodes=(1,))
            )
        )
    CASES[f"promotion/{_name}"] = lambda n=_name: _promotion_entry(
        run_recovery_experiment(
            _app(n), _config(), "failover", failed_nodes=(1,), replication=2
        )
    )
CASES["two-victim/ccl/sor"] = lambda: _multi_entry(
    run_recovery_experiment(
        _app("sor"), _config(), "ccl", failed_nodes=(0, 2)
    )
)
CASES["at-time+quarantine/ccl/sor"] = lambda: _multi_entry(_at_time_run(2))
CASES["at-time+torn-tail/ccl/sor"] = lambda: _multi_entry(_at_time_run(9))
CASES["promotion-lagging-mirror/water"] = _lagging_mirror_promotion
CASES["checkpointed/ccl/sor"] = lambda: _replay_entry(
    run_recovery_experiment(
        _app("sor"), _config(), "ccl", failed_nodes=(0,), checkpoint_every=2
    )
)


def _early_diff_run(reaccess, scheme):
    """Rank 1 of the ``early-diff`` preset, crashed at its final seal."""
    system = program_system(early_diff(reaccess), scheme)
    return run_recovery_experiment(
        system.app, system.config, scheme, failed_nodes=(1,)
    )


for _scheme in ("ml", "ccl"):
    # retention truncates the log below the oldest kept checkpoint, so the
    # replay skips the truncated intervals and installs the image (restore mode)
    CASES[f"restore/{_scheme}/sor"] = lambda s=_scheme: _replay_entry(
        run_recovery_experiment(
            _app("sor"), _config(), s, failed_nodes=(0,), checkpoint_every=2,
            retention=2,
        )
    )
    for _reaccess in ("reread", "rewrite"):
        CASES[f"early-diff/{_reaccess}/{_scheme}"] = (
            lambda r=_reaccess, s=_scheme: _replay_entry(_early_diff_run(r, s))
        )


@pytest.mark.parametrize("case", sorted(CASES))
def test_simulated_results_match_golden(case):
    golden = json.loads(GOLDEN.read_text())
    assert CASES[case]() == golden[case]


def test_golden_has_no_stale_cases():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


@pytest.mark.parametrize("app, scheme, checkpoint_every, victim, replication", [
    ("sor", "ml", None, 0, 1),
    ("sor", "ccl", 2, 2, 1),
    ("water", "ccl", None, 2, 1),
    ("water", "adaptive", 2, 0, 1),
    ("shallow", "failover", None, 0, 1),
    ("shallow", "ml", 2, 2, 1),
    ("sor", "failover", None, 2, 2),
])
def test_driver_matches_direct_path(
    app, scheme, checkpoint_every, victim, replication
):
    """A one-victim experiment and the benchmark's direct calls on the
    same phase A give the same recovery time, seal and mismatch list."""
    res = run_recovery_experiment(
        _app(app), _config(), scheme, failed_nodes=(victim,),
        checkpoint_every=checkpoint_every, replication=replication,
    )
    (rec,) = res.victims

    # the same phase A, built by hand, then the benchmark's direct calls
    system = DsmSystem(_app(app), _config(), make_hooks_factory(scheme),
                       replication=replication)
    probe = CrashProbe(victim)
    system.add_probe(probe)
    if checkpoint_every:
        for node in system.nodes:
            node.checkpointer = Checkpointer(checkpoint_every)
    system.run()
    probe.finalize()
    plan = plan_victim(system, probe)
    config = system.config
    if replication >= 2:
        _promoted, _epoch, mirror, breakdown, _stats, _n, _m = (
            recover_via_failover(config, system, victim, plan.plog,
                                 plan.stop_at)
        )
        seconds = (breakdown["promotion"] + breakdown["meta_replay"]
                   + breakdown["diff_refetch"])
        home_pages = [p for p, h in enumerate(system.homes) if h == victim]
        mismatches = compare_mirror(mirror, plan.snapshot, home_pages,
                                    config.page_size)
    else:
        replay, seconds = replay_failed_node(
            system.app, config, scheme, system, victim, plan.plog,
            plan.stop_at, plan.free_until, plan.checkpoint,
        )
        mismatches = compare_state(replay, plan.snapshot, config.page_size)
    assert res.ok and mismatches == rec.mismatches == []
    assert (rec.promotion is not None) == (replication >= 2)
    assert rec.recovery_time == seconds
    assert rec.at_seal == plan.stop_at
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
    c for c in CASES
    if c.startswith(("replay/", "checkpointed/", "restore/", "promotion"))
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
