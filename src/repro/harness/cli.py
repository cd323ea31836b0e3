"""Command-line entry point: ``python -m repro``.

Regenerates the paper's evaluation from the terminal::

    python -m repro table1
    python -m repro table2 [--apps fft3d mg] [--scale bench] [--jobs 4]
    python -m repro fig4   [--scale bench] [--jobs 4]
    python -m repro fig5   [--scale bench] [--failed-node 3] [--jobs 4]
    python -m repro all    [--scale test|bench] [--jobs 4]
    python -m repro ablation [--which disk|pagesize] [--jobs 4]
    python -m repro perf   [--out BENCH_perf.json] [--target]
    python -m repro analyze [trace.jsonl | --apps sor --protocol ccl]
    python -m repro chaos  [--seeds 13] [--crash-points 5] [--seed N ...]
                           [--replication K] [--zones N] [--zone-kill Z]
                           [--zone-partition A,B] [--zone-wan S]
    python -m repro modelcheck [--program lock] [--nodes 2] [--pages 1]
    python -m repro timeline [runs/<id> | trace.jsonl]
    python -m repro critical-path [runs/<id> | trace.jsonl]
    python -m repro compare runs/<A> runs/<B>
    python -m repro query [runs/<id>] [--report locks|pages|phases|flows]
    python -m repro explain runs/<A> runs/<B> | A B --from-history

Each command prints the rendered table/figure; ``--csv PREFIX`` also
writes the underlying rows to ``PREFIX_<name>.csv``.  Output goes
through the console layer (:mod:`repro.obs.console`): ``--quiet``
drops progress lines, ``--json`` emits one machine-readable document.
Commands that run simulations also write a run-artifact bundle to
``--runs-dir`` (default ``runs/``; disable with ``--no-artifacts``) --
``repro compare A B`` diffs two such bundles, ``repro timeline`` and
``repro critical-path`` analyse their recorded traces (see
docs/observability.md).  ``--jobs N`` fans independent simulations out
over N processes; results are gathered in submission order, so the
rendered tables are byte-identical to a serial run.  ``perf`` runs the
microbenchmark suite (see :mod:`repro.harness.perf`), writes
``BENCH_perf.json``, and appends the run to
``benchmark_results/history.jsonl`` (the committed perf trajectory).
"""

from __future__ import annotations

import argparse
from typing import Any, Dict, List, Optional

from ..apps import PAPER_APPS
from ..config import ClusterConfig
from ..core.chaos import DEFAULT_RATES
from ..core.logging_base import PROTOCOL_NAMES, RECOVERY_PROTOCOL_NAMES
from ..errors import ReproError
from ..obs.artifacts import config_dict, result_summary, write_bundle
from ..obs.console import configure as configure_console
from .figures import fig4_rows, fig5_rows, render_fig4, render_fig5, write_csv
from .runner import logging_comparison_task, recovery_comparison_task
from .sweep import parallel_map
from .tables import render_table1, render_table2_panel

__all__ = ["main"]

COMMANDS = [
    "table1", "table2", "fig4", "fig5", "breakdown", "report", "analyze",
    "ablation", "perf", "chaos", "modelcheck", "timeline", "critical-path",
    "compare", "query", "explain", "all",
]


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the evaluation of 'Coherence-Centric Logging "
        "and Recovery for Home-Based Software DSM' (ICPP 1999).",
    )
    p.add_argument(
        "command",
        choices=COMMANDS,
        help="which artefact to regenerate ('analyze' runs the coherence "
             "sanitizer, 'perf' the microbenchmark suite, 'chaos' the "
             "seeded fault-injection/recovery property suite, 'modelcheck' "
             "the exhaustive small-scope schedule/crash explorer; "
             "'timeline', 'critical-path', 'compare', 'query' and "
             "'explain' work on run-artifact bundles)",
    )
    p.add_argument("trace", nargs="?", default=None, metavar="TRACE",
                   help="analyze/timeline/critical-path/query: a saved "
                        "JSONL trace or a runs/<id> bundle; "
                        "compare/explain: bundle A")
    p.add_argument("trace2", nargs="?", default=None, metavar="TRACE2",
                   help="compare/explain: bundle B")
    p.add_argument("--save-trace", default=None, metavar="PATH",
                   help="analyze: also save the run's trace as JSONL")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the report/perf/timeline output here "
                        "(default: stdout / BENCH_perf.json / "
                        "timeline.json)")
    p.add_argument("--protocol", default="ccl",
                   choices=list(PROTOCOL_NAMES),
                   help="logging protocol for the breakdown/timeline/"
                        "critical-path commands")
    p.add_argument("--recovery-budget", type=float, default=None,
                   metavar="SECONDS",
                   help="adaptive protocol only: worst-case recovery-time "
                        "bound (virtual seconds) its cost model enforces; "
                        "default: unbounded (pure overhead minimisation)")
    p.add_argument("--paper-mode", action="store_true",
                   help="writer-aligned homes + no home-write logging "
                        "(reproduces the paper's log-size ratios; "
                        "see EXPERIMENTS.md)")
    p.add_argument("--apps", nargs="*", default=None,
                   help="applications to run (default: the paper's four; "
                        "chaos defaults to sor+water)")
    p.add_argument("--scale", default="bench",
                   choices=["test", "bench", "paper"],
                   help="dataset scale (see repro.harness.scales)")
    p.add_argument("--nodes", type=int, default=None,
                   help="cluster size (default: 8 as in the paper; "
                        "modelcheck: 2)")
    p.add_argument("--failed-node", type=int, default=3,
                   help="node crashed in recovery experiments")
    p.add_argument("--csv", default=None, metavar="PREFIX",
                   help="also write CSV files with this path prefix")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="fan independent simulations out over N processes "
                        "(default: serial; output is byte-identical)")
    p.add_argument("--which", default="disk",
                   choices=["disk", "pagesize", "logsize", "adaptive",
                            "replication"],
                   help="ablation: which sweep to run")
    p.add_argument("--repeat", type=int, default=5,
                   help="perf: timing repetitions per kernel (best-of)")
    p.add_argument("--target", action="store_true",
                   help="perf: headline mode -- simulator events/s plus "
                        "one 64-node long-run wall clock, appended to "
                        "the trajectory (skips the full kernel suite)")
    obs = p.add_argument_group("output and run artifacts")
    obs.add_argument("--quiet", action="store_true",
                     help="suppress progress output (results still print)")
    obs.add_argument("--json", action="store_true", dest="json_mode",
                     help="emit one JSON document instead of text")
    obs.add_argument("--runs-dir", default="runs", metavar="DIR",
                     help="where run-artifact bundles are written "
                          "(default: runs/)")
    obs.add_argument("--no-artifacts", action="store_true",
                     help="do not write a run-artifact bundle")
    obs.add_argument("--history", default="benchmark_results/history.jsonl",
                     metavar="PATH",
                     help="perf: the append-only perf trajectory file")
    obs.add_argument("--report", default="all",
                     choices=["locks", "pages", "phases", "flows", "all"],
                     help="query: which built-in report to aggregate "
                          "(default: all of them)")
    obs.add_argument("--from-history", action="store_true",
                     help="explain: A and B are integer indices into "
                          "--history entries (0-based, from the front) "
                          "instead of "
                          "run bundles")
    chaos = p.add_argument_group(
        "chaos", "seeded fault-injection / arbitrary-instant crash suite"
    )
    chaos.add_argument("--protocols", nargs="*", default=["ccl", "ml"],
                       choices=list(RECOVERY_PROTOCOL_NAMES),
                       help="logging protocols to exercise")
    chaos.add_argument("--seeds", type=int, default=13,
                       help="number of seeds per (app, protocol) pair")
    chaos.add_argument("--first-seed", type=int, default=0,
                       help="first seed of the sweep (nightly soak rotates "
                            "this)")
    chaos.add_argument("--seed", type=int, default=None,
                       help="run exactly one seed (the repro path a "
                            "failure prints)")
    chaos.add_argument("--crash-points", type=int, default=5,
                       help="crash instants sampled per probed run")
    chaos.add_argument("--crash-time", type=float, default=None,
                       help="with --seed: pin the single crash instant "
                            "(virtual seconds)")
    chaos.add_argument("--crash-node", type=int, default=None,
                       help="with --seed: pin the victim node")
    chaos.add_argument("--live-kill", action="store_true",
                       help="with --seed: kill the victim live mid-run")
    chaos.add_argument("--kill-every", type=int, default=4,
                       help="every Nth seed becomes a live-kill case "
                            "(0 disables)")
    chaos.add_argument("--drop", type=float, default=DEFAULT_RATES["drop"],
                       help="per-message drop probability")
    chaos.add_argument("--dup", type=float, default=DEFAULT_RATES["dup"],
                       help="per-message duplication probability")
    chaos.add_argument("--delay-rate", type=float, default=DEFAULT_RATES["delay"],
                       help="per-message extra-delay probability")
    chaos.add_argument("--reorder", type=float, default=DEFAULT_RATES["reorder"],
                       help="per-message reorder probability")
    chaos.add_argument("--disk-torn", type=float, default=0.0,
                       help="per-crash probability that a byte prefix of "
                            "the in-flight flush survives (torn tail)")
    chaos.add_argument("--disk-write-error", type=float, default=0.0,
                       help="per-flush-attempt transient write-error "
                            "probability (retried with backoff)")
    chaos.add_argument("--disk-bitrot", type=float, default=0.0,
                       help="per-segment latent bit-flip probability "
                            "(caught by the salvage scan's CRC walk)")
    chaos.add_argument("--sanitize", action="store_true",
                       help="also run the coherence sanitizer over each "
                            "faulted trace")
    chaos.add_argument("--fail-fast", action="store_true",
                       help="stop at the first failing case")
    chaos.add_argument("--replication", type=int, default=1, metavar="K",
                       help="home replication factor: mirror every home's "
                            "sealed state onto K-1 followers with "
                            "quorum-acked writes (1 = off, byte-identical "
                            "to the unreplicated run; the failover "
                            "protocol needs K >= 2)")
    chaos.add_argument("--zones", type=int, default=None, metavar="N",
                       help="spread the cluster round-robin over N fault "
                            "domains (required by --zone-kill / "
                            "--zone-partition; replica placement becomes "
                            "zone-aware)")
    chaos.add_argument("--zone-wan", type=float, default=0.0,
                       metavar="SECONDS",
                       help="extra one-way latency for every message "
                            "crossing a zone boundary")
    chaos.add_argument("--zone-kill", type=int, default=None, metavar="Z",
                       help="chaos: live-kill every node of zone Z at a "
                            "seeded instant and verify each victim's "
                            "recovery with its co-victims dead")
    chaos.add_argument("--zone-partition", default=None, metavar="A,B",
                       help="chaos: partition zones A and B from each "
                            "other for a seeded window mid-run (the "
                            "reliable transport must ride it out)")
    mc = p.add_argument_group(
        "modelcheck", "small-scope exhaustive schedule/crash exploration"
    )
    mc.add_argument("--program", default="lock",
                    choices=["lock", "barrier"],
                    help="bounded preset to explore (lock: one contended "
                         "lock; barrier: neighbour reads after a barrier)")
    mc.add_argument("--pages", type=int, default=1,
                    help="shared pages in the bounded config (1-2)")
    mc.add_argument("--budget", type=int, default=5000,
                    help="max schedules (explored + pruned) before the "
                         "exploration reports TRUNCATED")
    mc.add_argument("--no-dpor", action="store_true",
                    help="disable the sleep-set partial-order reduction "
                         "(explores all interleavings, not one per trace)")
    mc.add_argument("--no-recovery", action="store_true",
                    help="skip per-crash-point recovery checks (live "
                         "invariants only)")
    mc.add_argument("--allow-truncated", action="store_true",
                    help="exit 0 on a violation-free but budget-truncated "
                         "exploration (coverage run, not a proof; the "
                         "nightly 4-node sweeps use this)")
    mc.add_argument("--schedule", default=None, metavar="D.D.D",
                    help="replay exactly one delivery schedule (the "
                         "repro path a violation prints)")
    return p


def _write_run_bundle(args, config: ClusterConfig,
                      summaries: List[Dict[str, Any]],
                      extra: Optional[Dict[str, Any]] = None) -> None:
    """Persist one run-artifact bundle for a finished command."""
    if args.no_artifacts or not summaries:
        return
    manifest: Dict[str, Any] = {
        "command": args.command,
        "scale": args.scale,
        "config": config_dict(config),
        "results": summaries,
    }
    if extra:
        manifest.update(extra)
    bundle = write_bundle(args.runs_dir, manifest)
    from ..obs.console import get_console

    get_console().info(f"run bundle: {bundle}")


def main(argv: Optional[List[str]] = None) -> int:
    """Run the CLI; returns a process exit code (2 and one error line for
    any :class:`~repro.errors.ReproError`: a refused input, a torn bundle)."""
    args = _parser().parse_args(argv)
    if args.nodes is None:
        args.nodes = 2 if args.command == "modelcheck" else 8
    con = configure_console(quiet=args.quiet, json_mode=args.json_mode)
    try:
        code = _run_command(args, con)
    except ReproError as exc:
        con.error(f"{args.command}: {exc}")
        code = 2
    finally:
        con.finish()
        configure_console()  # reset modes for in-process callers (tests)
    return code


def _run_command(args, con) -> int:
    args.apps_given = args.apps is not None
    if args.apps is None:
        args.apps = list(PAPER_APPS)
    config = ClusterConfig.ultra5(num_nodes=args.nodes)
    summaries: List[Dict[str, Any]] = []

    if args.command == "chaos":
        from .chaoscmd import run_chaos

        return run_chaos(args)

    if args.command == "modelcheck":
        from .modelcheckcmd import run_modelcheck_cmd

        return run_modelcheck_cmd(args)

    if args.command == "analyze":
        from .analyze import run_analyze

        return run_analyze(args)

    if args.command == "timeline":
        from .obscmd import run_timeline

        return run_timeline(args, config)

    if args.command == "critical-path":
        from .obscmd import run_critical_path

        return run_critical_path(args, config)

    if args.command == "compare":
        from .obscmd import run_compare

        return run_compare(args)

    if args.command == "query":
        from .querycmd import run_query

        return run_query(args, config)

    if args.command == "explain":
        from .querycmd import run_explain

        return run_explain(args)

    if args.command in ("table1", "all"):
        con.result(render_table1(args.apps))
        con.result("")

    if args.command == "ablation":
        from .ablations import append_ablation_history, run_ablation

        text, points = run_ablation(args.which, config, jobs=args.jobs)
        con.result(text)
        entry = append_ablation_history(args.which, points, args.history)
        con.info(f"ablation history appended to {args.history} "
                 f"(rev {entry['git_rev']})")
        return 0

    if args.command == "perf":
        from .perf import (
            append_perf_history,
            run_perf_suite,
            run_target_headline,
            write_perf_json,
        )

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
            path = args.out or "BENCH_perf.json"
            write_perf_json(report, path)
            con.info(f"perf report written to {path}")
        entry = append_perf_history(report, args.history)
        con.info(f"perf history appended to {args.history} "
                 f"(rev {entry['git_rev']})")
        con.emit("perf", entry)
        return 0

    if args.command in ("table2", "fig4", "all"):
        specs = [
            dict(
                app_name=name, config=config, scale=args.scale,
                paper_mode=args.paper_mode,
            )
            for name in args.apps
        ]
        comparisons = parallel_map(logging_comparison_task, specs, jobs=args.jobs)
        if args.command in ("table2", "all"):
            for cmp in comparisons:
                con.result(render_table2_panel(cmp))
                con.result("")
        if args.command in ("fig4", "all"):
            con.result(render_fig4(comparisons))
        if args.csv:
            write_csv(fig4_rows(comparisons), f"{args.csv}_fig4.csv")
        for cmp in comparisons:
            for _protocol, result in sorted(cmp.results.items()):
                summaries.append(result_summary(result))

    if args.command == "report":
        from .report import generate_report

        text = generate_report(config, args.scale, args.apps,
                               failed_node=args.failed_node)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
            con.info(f"report written to {args.out}")
        else:
            con.result(text)

    if args.command == "breakdown":
        from .breakdown import render_breakdown
        from .runner import run_application

        for name in args.apps:
            result, _system = run_application(
                name, args.protocol, config, args.scale,
                recovery_budget=args.recovery_budget,
            )
            con.result(render_breakdown(result))
            con.result("")
            summaries.append(result_summary(result))

    if args.command in ("fig5", "all"):
        specs = [
            dict(
                app_name=name, config=config, scale=args.scale,
                failed_node=args.failed_node,
            )
            for name in args.apps
        ]
        recoveries = parallel_map(recovery_comparison_task, specs, jobs=args.jobs)
        con.result(render_fig5(recoveries))
        if args.csv:
            write_csv(fig5_rows(recoveries), f"{args.csv}_fig5.csv")
        for rec in recoveries:
            summaries.append({
                "app": rec.app_name,
                "protocol": "recovery",
                "reexecution_s": rec.reexecution_s,
                "ml_recovery_s": rec.ml.recovery_time,
                "ccl_recovery_s": rec.ccl.recovery_time,
            })

    _write_run_bundle(args, config, summaries)
    return 0
