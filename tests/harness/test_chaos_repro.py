"""The chaos fault model end to end: refused before anything runs,
rendered back into flags, and reproduced by the command a case prints.

A case's repro command must rebuild the same fault model and sanitizer
setting, so its re-run draws the same plan and reaches the same verdict
at the same crash instant.  A fault model that cannot run is refused in
one line by both ``run_chaos_run`` and ``repro chaos`` (exit 2) before
any ``DsmSystem`` is built.
"""

import shlex

import pytest

from repro.apps import make_app
from repro.config import ClusterConfig
from repro.core.chaos import ChaosFaults, run_chaos_run
from repro.dsm.system import DsmSystem
from repro.errors import ConfigError
from repro.harness.chaoscmd import _chaos_inputs, _factories, _run_report
from repro.harness.cli import _parser, main

#: (zones, fault model, protocol, the same model as CLI flags, refusal)
REFUSALS = [
    pytest.param(2, dict(zone_kill=5), "ccl", "--zones 2 --zone-kill 5",
                 "unknown zone 5", id="unknown-kill-zone"),
    pytest.param(2, dict(zone_partition=(0, 3)), "ccl",
                 "--zones 2 --zone-partition 0,3", "unknown zone 3",
                 id="unknown-partition-zone"),
    pytest.param(2, dict(zone_partition=(1, 1)), "ccl",
                 "--zones 2 --zone-partition 1,1", "sides must differ",
                 id="equal-partition-sides"),
    pytest.param(None, dict(zone_kill=0), "ccl", "--zone-kill 0",
                 "at least one zone", id="kill-every-zone"),
    pytest.param(None, dict(replication=0), "ccl", "--replication 0",
                 "must be >= 1", id="replication-0"),
    pytest.param(None, dict(replication=5), "ccl", "--replication 5",
                 "exceeds the cluster", id="replication-above-nodes"),
    pytest.param(2, dict(), "failover", "--zones 2", "replication >= 2",
                 id="failover-at-replication-1"),
]


@pytest.mark.parametrize("zones,faults,protocol,flags,refusal", REFUSALS)
def test_bad_fault_model_is_refused(monkeypatch, capsys, zones, faults,
                                    protocol, flags, refusal):
    def no_system(*args, **kwargs):
        raise AssertionError("a DsmSystem was built before the refusal")

    monkeypatch.setattr(DsmSystem, "__init__", no_system)
    config = ClusterConfig.ultra5(num_nodes=4)
    if zones is not None:
        config = config.with_zones(zones)
    with pytest.raises(ConfigError, match=refusal) as err:
        run_chaos_run(lambda: make_app("sor", n=32, iters=2), config,
                      protocol, seed=0, faults=ChaosFaults(**faults),
                      app_name="sor")
    assert "\n" not in str(err.value)
    argv = ["chaos", "--apps", "sor", "--scale", "test", "--nodes", "4",
            "--seeds", "1", "--protocols", protocol, "--no-artifacts",
            *flags.split()]
    assert main(argv) == 2
    (line,) = capsys.readouterr().out.strip().splitlines()
    assert line.startswith("chaos: ") and refusal in line


def test_valid_fault_model_is_accepted_and_renders_its_flags():
    config = ClusterConfig.ultra5(num_nodes=4).with_zones(2, wan_latency_s=2e-4)
    faults = ChaosFaults(drop=0.1, disk_torn=0.5, replication=2, zone_kill=1,
                         zone_partition=(0, 1))
    faults.validate(config, "failover")
    assert faults.flags(config) == [
        "--nodes 4", "--zones 2", "--zone-wan 0.0002", "--drop 0.1",
        "--disk-torn 0.5", "--replication 2", "--zone-kill 1",
        "--zone-partition 0,1",
    ]
    # the defaults are the CLI's: nothing but the cluster to render
    assert ChaosFaults().flags(ClusterConfig.ultra5(num_nodes=4)) == [
        "--nodes 4"
    ]


def _cli_run(argv):
    """Run ``repro chaos`` argv down the CLI's own path; returns the
    inputs it resolved to and the report."""
    args = _parser().parse_args(argv)
    args.apps_given = True  # what the CLI dispatcher records for --apps
    config, faults = _chaos_inputs(args)
    report = _run_report(args, _factories(args.apps, args.scale), config,
                         faults)
    return (config, faults, args.sanitize), report


@pytest.mark.parametrize("flags", [
    pytest.param("--zones 2 --zone-partition 0,1", id="zone-partition"),
    pytest.param("--drop 0.15 --dup 0.02 --delay-rate 0.2 --reorder 0.05",
                 id="packet-rates"),
    pytest.param("--disk-torn 0.6 --disk-write-error 0.1 --disk-bitrot 0.3",
                 id="disk-faults"),
    pytest.param("--protocols failover --replication 2 --zones 2 "
                 "--zone-kill 1", id="zone-kill-failover"),
    pytest.param("--live-kill", id="live-kill"),
    pytest.param("--sanitize", id="sanitize"),
])
def test_repro_command_reproduces_the_case(flags):
    inputs, report = _cli_run(shlex.split(
        "chaos --apps sor --protocols ccl --seed 9 --scale test --nodes 4 "
        f"--crash-points 2 {flags}"
    ))
    case = max(report.cases, key=lambda c: (c.stop_at, c.crash_time))
    argv = shlex.split(case.repro_command())
    assert argv[:4] == ["python", "-m", "repro", "chaos"]
    again_inputs, again = _cli_run(argv[3:])
    assert again_inputs == inputs
    assert again.plans == report.plans
    (same,) = [c for c in again.cases
               if (c.crash_node, c.crash_time) == (case.crash_node,
                                                   case.crash_time)]
    assert (same.ok, same.stop_at, same.detail) == (
        case.ok, case.stop_at, case.detail
    )
