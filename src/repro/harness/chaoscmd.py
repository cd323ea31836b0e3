"""The ``repro chaos`` command: seeded fault/crash property suite.

Default invocation runs ~200 cases (2 apps x 2 protocols x 13 seeds,
5 crash instants per probed run, every 4th seed a live kill) and exits
non-zero if any recovery is not bit-exact.  A failure prints a one-line
command that reproduces exactly that case::

    repro chaos --apps sor --protocols ccl --seed 7 \
        --crash-time 0.0123 --crash-node 2

and -- unless ``--no-artifacts`` -- re-runs the failing execution with
tracing forced on and dumps a telemetry bundle (manifest + span trace,
see docs/observability.md) next to that command, so the causal timeline
of the failure is preserved without re-running anything.

See :mod:`repro.core.chaos` for the verification model.
"""

from __future__ import annotations

from dataclasses import fields
from functools import partial
from typing import Optional, Tuple

from ..apps import make_app
from ..config import ClusterConfig
from ..core.chaos import ChaosFaults, ChaosReport, run_chaos_run, run_chaos_suite
from ..errors import ConfigError
from ..obs.console import get_console
from .scales import app_kwargs

__all__ = ["run_chaos"]

#: Small-but-representative default pair: SOR is barrier-phased with
#: wide sharing, Water lock-heavy with migratory pages.
DEFAULT_CHAOS_APPS = ("sor", "water")

#: At most this many failures get a telemetry bundle (a pathological
#: run can fail hundreds of cases; each bundle re-runs the execution).
MAX_FAILURE_BUNDLES = 3


def _factories(app_names, scale):
    return {name: partial(make_app, name, **app_kwargs(name, scale))
            for name in app_names}


def _parse_zone_partition(value: Optional[str]) -> Optional[Tuple[int, int]]:
    """``"A,B"`` -> ``(A, B)``, with a one-line diagnosis on bad input."""
    if value is None:
        return None
    try:
        a, b = (int(part) for part in value.split(","))
    except ValueError:
        raise ConfigError(
            f"--zone-partition wants two zone ids 'A,B', got {value!r}"
        ) from None
    return (a, b)


def _chaos_inputs(args) -> Tuple[ClusterConfig, ChaosFaults]:
    """The (possibly zoned) cluster and the one fault model every case
    runs under, refused in one line before any simulation runs."""
    config = ClusterConfig.ultra5(num_nodes=args.nodes)
    if args.zones is not None:
        config = config.with_zones(args.zones, wan_latency_s=args.zone_wan)
    elif args.zone_wan:
        raise ConfigError("--zone-wan needs --zones (one zone has no WAN)")
    # every fault-model field is named after the flag that sets it
    given = {f.name: getattr(args, f.name) for f in fields(ChaosFaults)}
    given["zone_partition"] = _parse_zone_partition(args.zone_partition)
    faults = ChaosFaults(**given)
    for protocol in args.protocols:
        faults.validate(config, protocol)
    return config, faults


def _dump_failure_bundles(report: ChaosReport, factories, config, args) -> None:
    """Re-run up to MAX_FAILURE_BUNDLES failing cases traced and dump
    one telemetry bundle per case next to its repro command."""
    from ..obs.artifacts import config_dict, write_bundle
    from ..sim.trace import Tracer

    con = get_console()
    # one bundle per distinct (app, protocol, seed) execution
    seen = set()
    dumped = 0
    for case in report.failures:
        key = (case.app, case.protocol, case.seed)
        if key in seen or case.app not in factories:
            continue
        seen.add(key)
        if dumped >= MAX_FAILURE_BUNDLES:
            con.info(
                f"({len(report.failures)} failures; bundles capped at "
                f"{MAX_FAILURE_BUNDLES})"
            )
            break
        tracer = Tracer(enabled=True)
        try:
            run_chaos_run(
                factories[case.app], config, case.protocol, case.seed,
                app_name=case.app, crash_node=case.crash_node,
                crash_times=[case.crash_time], live_kill=case.live_kill,
                faults=case.faults, sanitize=case.sanitize, tracer=tracer,
            )
        except Exception as exc:  # the failure itself may raise
            con.info(f"traced re-run of seed {case.seed} raised: {exc!r}")
        manifest = {
            "command": "chaos-failure",
            "config": config_dict(config),
            "case": {
                "app": case.app,
                "protocol": case.protocol,
                "seed": case.seed,
                "crash_node": case.crash_node,
                "crash_time": case.crash_time,
                "live_kill": case.live_kill,
                "detail": case.detail,
                "mismatches": case.mismatches[:20],
                "salvage": case.salvage,
            },
            "repro_command": case.repro_command(),
        }
        bundle = write_bundle(args.runs_dir, manifest, tracer=tracer,
                              run_id=None, seeds=[case.seed])
        con.result(f"  telemetry bundle for seed {case.seed}: {bundle}")
        dumped += 1


def _run_report(args, factories, config, faults) -> ChaosReport:
    """The suite, or the single-seed repro path a failure prints; a
    case's pins without the ``--seed`` they pin are refused."""
    # the app scale is the one flag of a case chaos cannot know
    repro_extra = f"--scale {args.scale}"
    if args.seed is None:
        pins = {"--crash-time": args.crash_time is not None,
                "--crash-node": args.crash_node is not None,
                "--live-kill": args.live_kill}
        pinned = [flag for flag, given in pins.items() if given]
        if pinned:
            raise ConfigError(f"{pinned[0]} pins one case of a seed; "
                              "pass --seed N")
        return run_chaos_suite(
            factories, config, protocols=tuple(args.protocols),
            seeds=args.seeds, first_seed=args.first_seed,
            crash_points=args.crash_points, kill_every=args.kill_every,
            faults=faults, sanitize=args.sanitize, fail_fast=args.fail_fast,
            repro_extra=repro_extra,
        )
    # single-seed repro path, optionally pinned to one crash instant
    report = ChaosReport()
    for name, factory in sorted(factories.items()):
        for protocol in args.protocols:
            run = run_chaos_run(
                factory, config, protocol, args.seed, app_name=name,
                crash_points=args.crash_points, crash_node=args.crash_node,
                crash_times=None if args.crash_time is None else [args.crash_time],
                live_kill=args.live_kill, faults=faults,
                sanitize=args.sanitize, repro_extra=repro_extra,
            )
            report.merge(run)
            get_console().info(f"{name}/{protocol}: {run.plans[0]}")
    return report


def run_chaos(args) -> int:
    con = get_console()
    config, faults = _chaos_inputs(args)
    factories = _factories(args.apps, args.scale)
    report = _run_report(args, factories, config, faults)
    con.result(report.render())
    if report.failures and not args.no_artifacts:
        _dump_failure_bundles(report, factories, config, args)
    con.emit("chaos", {
        "cases": len(report.cases),
        "failures": len(report.failures),
        "fault_totals": dict(report.fault_totals),
        "transport_totals": dict(report.transport_totals),
    })
    return 0 if report.ok else 1
