"""Command-line entry point: ``python -m repro <command>``.

``python -m repro --help`` lists the commands and ``python -m repro
<command> --help`` the flags each one takes (docs/api.md holds the same
table).  A command accepts only the flags its handler reads; anything
else is refused in one ``repro <command>: ...`` line on stderr, exit 2.
"""

from __future__ import annotations

import argparse
import json
from typing import Any, Dict, List, Optional, Tuple

from ..apps import PAPER_APPS
from ..config import ClusterConfig
from ..core.chaos import DEFAULT_RATES
from ..core.logging_base import (PROTOCOL_NAMES, RECOVERY_PROTOCOL_NAMES,
                                 SCHEMES)
from ..errors import ConfigError, ReproError
from ..obs.artifacts import result_summary
from ..obs.console import configure as configure_console
from ..obs.console import get_console
from .analyze import run_analyze
from .breakdown import render_breakdown
from .chaoscmd import DEFAULT_CHAOS_APPS, run_chaos
from .experiments import EXPERIMENTS
from .modelcheckcmd import run_modelcheck_cmd
from .obscmd import (record_bundle, run_critical_path, run_explain, run_query,
                     run_timeline)
from .perf import (append_perf_history, run_perf_suite, run_target_headline,
                   write_perf_json)
from .runner import run_application
from .scales import SCALES

__all__ = ["main"]

#: The flags more than one command reads, by dest: (flag, keywords).
_SHARED: Dict[str, Tuple[str, Dict[str, Any]]] = {
    "trace": ("trace", dict(nargs="?", metavar="RUN",
                            help="a runs/<id> bundle or a saved JSONL trace "
                                 "(default: a fresh traced run of --apps)")),
    "apps": ("--apps", dict(nargs="*", default=PAPER_APPS,
                            choices=sorted(SCALES["test"]),
                            help="applications to run")),
    "scale": ("--scale", dict(default="bench", choices=list(SCALES),
                              help="dataset scale (see repro.harness.scales)")),
    "nodes": ("--nodes", dict(type=int, default=8, help="cluster size")),
    "quiet": ("--quiet", dict(action="store_true",
                              help="suppress progress output")),
    "json_mode": ("--json", dict(action="store_true", dest="json_mode",
                                 help="emit one JSON document instead of text")),
    "runs_dir": ("--runs-dir", dict(default="runs", metavar="DIR",
                                    help="where run bundles are written")),
    "no_artifacts": ("--no-artifacts", dict(action="store_true",
                                            help="write no run bundle")),
    "protocol": ("--protocol", dict(default="ccl", choices=list(PROTOCOL_NAMES),
                                    help="logging protocol")),
    "out": ("--out", dict(metavar="PATH",
                          help="write the command's document here")),
}

#: The shared groups: what simulates, how it prints, where bundles go.
WORKLOAD = ("apps", "scale", "nodes")
OUTPUT = ("quiet", "json_mode")
BUNDLE = ("runs_dir", "no_artifacts")


class _Parser(argparse.ArgumentParser):
    """Refuses bad input with a one-line :class:`ConfigError`."""

    def error(self, message: str):
        raise ConfigError(f"{self.prog}: {message}")


def _shared(*dests: str, **defaults: Any) -> argparse.ArgumentParser:
    """A parent parser with the named shared flags; built per command,
    so one command's ``defaults`` stay its own."""
    parent = argparse.ArgumentParser(add_help=False)
    for dest in dests:
        flag, kwargs = _SHARED[dest]
        if dest in defaults:
            kwargs = dict(kwargs, default=defaults[dest])
        parent.add_argument(flag, **kwargs)
    return parent


def _parser() -> argparse.ArgumentParser:
    p = _Parser(prog="repro", description="Reproduce the evaluation of "
                "'Coherence-Centric Logging and Recovery for Home-Based "
                "Software DSM' (ICPP 1999).")
    sub = p.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def command(name, handler, text, *shared, **defaults):
        cmd = sub.add_parser(name, help=text, description=text,
                             allow_abbrev=False,
                             parents=[_shared(*shared, *OUTPUT, **defaults)])
        cmd.set_defaults(handler=handler)
        return cmd

    rows = command("experiments", _experiments, "experiment-table rows, all "
                   "by default; exits 1 when a claim fails", "nodes")
    rows.add_argument("rows", nargs="*", metavar="ROW", type=_row,
                      help="rows to run (default: every row, in table "
                           "order): " + ", ".join(EXPERIMENTS))
    rows.add_argument("--jobs", type=int, default=1, metavar="N",
                      help="fan simulations out over N processes "
                           "(output is byte-identical)")
    breakdown = command("breakdown", _breakdown,
                        "per-node execution-time breakdown", *WORKLOAD,
                        *BUNDLE, "protocol")
    breakdown.add_argument("--recovery-budget", type=float, metavar="SECONDS",
                           help="adaptive protocol only: worst-case recovery "
                                "time (virtual seconds) its cost model "
                                "enforces (default: none)")
    analyze = command("analyze", run_analyze, "coherence sanitizer over a "
                      "trace or a traced run; exits 1 on a finding", "trace",
                      *WORKLOAD, "protocol")
    analyze.add_argument("--save-trace", metavar="PATH",
                         help="also save the run's trace")
    perf = command("perf", _perf, "microbenchmark suite; prints its report "
                   "unless --out names a file", "apps", "out")
    perf.add_argument("--repeat", type=int, default=5,
                      help="timing repetitions per kernel (best-of)")
    perf.add_argument("--target", action="store_true",
                      help="headline only: simulator events/s plus one "
                           "64-node long-run wall clock")
    perf.add_argument("--history", metavar="PATH",
                      help="also append the run to this perf trajectory "
                           "(benchmark_results/history.jsonl is committed)")
    _chaos_flags(command("chaos", run_chaos, "seeded fault-injection / "
                         "arbitrary-instant crash suite", *WORKLOAD, *BUNDLE,
                         apps=DEFAULT_CHAOS_APPS))
    mc = command("modelcheck", run_modelcheck_cmd, "small-scope exhaustive "
                 "schedule/crash exploration", "nodes", nodes=2)
    mc.add_argument("--protocol", default="ccl",
                    choices=[n for n, s in SCHEMES.items() if not s.promotes],
                    help="logging protocol (a crashed node is recovered by "
                         "replay, so no promoting scheme)")
    mc.add_argument("--program", default="lock", choices=["lock", "barrier"],
                    help="bounded preset (lock: one contended lock; "
                         "barrier: neighbour reads after a barrier)")
    mc.add_argument("--pages", type=int, default=1,
                    help="shared pages in the bounded config (1-2)")
    mc.add_argument("--budget", type=int, default=5000,
                    help="max schedules (explored + pruned) before the "
                         "exploration reports TRUNCATED")
    mc.add_argument("--no-dpor", action="store_true",
                    help="disable the sleep-set partial-order reduction")
    mc.add_argument("--no-recovery", action="store_true",
                    help="check live invariants only, no crash points")
    mc.add_argument("--allow-truncated", action="store_true",
                    help="exit 0 on a violation-free but budget-truncated "
                         "exploration (a coverage run, not a proof)")
    mc.add_argument("--schedule", metavar="D.D.D",
                    help="replay exactly one delivery schedule (the "
                         "repro path a violation prints)")
    run = ("trace", *WORKLOAD, *BUNDLE, "protocol")
    command("timeline", run_timeline, "Perfetto/Chrome trace-event timeline "
            "of a run", *run, "out")
    command("critical-path", run_critical_path, "causal critical path and "
            "flush/communication overlap of a run", *run)
    query = command("query", run_query, "built-in aggregation reports over "
                    "a run's trace", *run, "out")
    query.add_argument("--report", default="all",
                       choices=["locks", "pages", "phases", "flows", "all"],
                       help="which built-in report to aggregate")
    explain = command("explain", run_explain, "diff two run bundles, or two "
                      "perf-history entries")
    explain.add_argument("run_a", metavar="A", help="run bundle A")
    explain.add_argument("run_b", metavar="B", help="run bundle B")
    explain.add_argument("--from-history", action="store_true",
                         help="A and B are 0-based indices into --history")
    explain.add_argument("--history", metavar="PATH",
                         default="benchmark_results/history.jsonl",
                         help="the perf trajectory --from-history reads")
    return p


def _chaos_flags(chaos: argparse.ArgumentParser) -> None:
    """The suite's sweep, a case's pins and the fault model."""
    chaos.add_argument("--protocols", nargs="*", default=["ccl", "ml"],
                       choices=list(RECOVERY_PROTOCOL_NAMES),
                       help="logging protocols to exercise")
    chaos.add_argument("--seeds", type=int, default=13,
                       help="number of seeds per (app, protocol) pair")
    chaos.add_argument("--first-seed", type=int, default=0,
                       help="first seed of the sweep")
    chaos.add_argument("--seed", type=int,
                       help="run exactly one seed (the repro path a "
                            "failure prints)")
    chaos.add_argument("--crash-points", type=int, default=5,
                       help="crash instants sampled per probed run")
    chaos.add_argument("--crash-time", type=float,
                       help="with --seed: pin the crash instant (virtual s)")
    chaos.add_argument("--crash-node", type=int,
                       help="with --seed: pin the victim node")
    chaos.add_argument("--live-kill", action="store_true",
                       help="with --seed: kill the victim live mid-run")
    chaos.add_argument("--kill-every", type=int, default=4,
                       help="every Nth seed is a live kill (0 disables)")
    chaos.add_argument("--sanitize", action="store_true",
                       help="also run the coherence sanitizer over each "
                            "faulted trace")
    chaos.add_argument("--fail-fast", action="store_true",
                       help="stop at the first failing case")
    faults = chaos.add_argument_group(
        "fault model", "one repro.core.chaos.ChaosFaults field per flag, "
        "and the zones they span")
    for flag, rate in (("--drop", "drop"), ("--dup", "dup"),
                       ("--delay-rate", "delay"), ("--reorder", "reorder")):
        faults.add_argument(flag, type=float, default=DEFAULT_RATES[rate],
                            help=f"per-message {rate} probability")
    faults.add_argument("--disk-torn", type=float, default=0.0,
                        help="per-crash probability that a byte prefix of "
                             "the in-flight flush survives (torn tail)")
    faults.add_argument("--disk-write-error", type=float, default=0.0,
                        help="per-flush-attempt transient write-error "
                             "probability (retried with backoff)")
    faults.add_argument("--disk-bitrot", type=float, default=0.0,
                        help="per-segment latent bit-flip probability")
    faults.add_argument("--replication", type=int, default=1, metavar="K",
                        help="mirror every home onto K-1 quorum-acked "
                             "followers (1 = off; failover needs K >= 2)")
    faults.add_argument("--zones", type=int, metavar="N",
                        help="spread the cluster round-robin over N fault "
                             "domains (zone-aware replica placement)")
    faults.add_argument("--zone-wan", type=float, default=0.0,
                        metavar="SECONDS",
                        help="extra one-way latency across a zone boundary")
    faults.add_argument("--zone-kill", type=int, metavar="Z",
                        help="live-kill every node of zone Z at a seeded "
                             "instant")
    faults.add_argument("--zone-partition", metavar="A,B",
                        help="partition zones A and B from each other for a "
                             "seeded window mid-run")


def main(argv: Optional[List[str]] = None) -> int:
    """Run the CLI; returns a process exit code: 2 and one ``repro
    <command>: ...`` line on stderr for every refusal, argparse's and
    any :class:`~repro.errors.ReproError` (a bad fault model, a torn
    bundle) alike."""
    try:
        args, extra = _parser().parse_known_args(argv)
        if extra:
            raise ConfigError(f"repro {args.command}: unrecognized "
                              f"arguments: {' '.join(extra)}")
    except ConfigError as exc:
        get_console().error(exc)
        return 2
    con = configure_console(quiet=args.quiet, json_mode=args.json_mode)
    try:
        return args.handler(args)
    except ReproError as exc:
        con.error(f"repro {args.command}: {exc}")
        return 2
    finally:
        con.finish()
        configure_console()  # reset modes for in-process callers (tests)


def _row(name: str) -> str:
    """An ``EXPERIMENTS`` key (``choices`` would refuse an empty list)."""
    if name not in EXPERIMENTS:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {name!r} (choose from {', '.join(EXPERIMENTS)})")
    return name


def _experiments(args) -> int:
    """Each row's artefact, then a line per failed claim on stderr."""
    con = get_console()
    config = ClusterConfig.ultra5(num_nodes=args.nodes)
    failures = 0
    for i, name in enumerate(args.rows or EXPERIMENTS):
        row = EXPERIMENTS[name]
        text, failed = row.run(config, jobs=args.jobs)
        con.result("\n" + text if i else text)
        for claim in failed:
            con.error(f"{row.id} claim failed: {claim.text}")
        failures += len(failed)
    return 1 if failures else 0


def _breakdown(args) -> int:
    con = get_console()
    config = ClusterConfig.ultra5(num_nodes=args.nodes)
    summaries: List[Dict[str, Any]] = []
    for name in args.apps:
        result, _system = run_application(
            name, args.protocol, config, args.scale,
            recovery_budget=args.recovery_budget,
        )
        con.result(render_breakdown(result))
        con.result("")
        summaries.append(result_summary(result))
    record_bundle(args, config, summaries)
    return 0


def _perf(args) -> int:
    """The suite, or ``--target``'s headline; a file only where a flag
    names one."""
    con = get_console()
    if args.target:
        report = run_target_headline(repeat=args.repeat)
        tgt = report["target"]
        con.result(
            f"sim_event_throughput  {tgt['events_per_sec']:>14,.0f} events/s"
            f"  ({tgt['ns_per_event']:.1f} ns/event)"
        )
        con.result(
            f"{tgt['longrun_app']}/{tgt['longrun_protocol']} x "
            f"{tgt['longrun_nodes']} nodes ({tgt['longrun_scale']})"
            f"  {tgt['longrun_wall_s']:.2f} s wall"
        )
    else:
        report = run_perf_suite(apps=args.apps, repeat=args.repeat)
        if not args.out and not con.json_mode:
            con.result(json.dumps(report, indent=2, sort_keys=True))
    if args.out:
        write_perf_json(report, args.out)
        con.info(f"perf report written to {args.out}")
    if args.history:
        entry = append_perf_history(report, args.history)
        con.info(f"perf history appended to {args.history} "
                 f"(rev {entry['git_rev']})")
    con.emit("perf", report)
    return 0
