"""The six whole-run workloads of the end-to-end benchmark.

Each workload has a ``setup`` (application and system construction,
plus the failure-free phase A for ``recovery8``) and a ``run`` whose
timed parts sit inside ``with clock:`` blocks.  Output checks -- app
numerics, bit-exact recovery, trace validity -- run outside the clock,
so the timed region is the system's work, not the oracle's.

Only public entry points are driven (``DsmSystem``, ``make_app``,
``make_hooks_factory``, ``replay_failed_node``, ``recover_via_failover``,
``run_chaos_suite``, ``Tracer``/``chrome_trace``/``critical_path``).
README.md says why each workload exists and which layer it stresses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Tuple

from repro import ClusterConfig, DsmSystem, make_app, make_hooks_factory
from repro.core import (
    CrashProbe,
    compare_state,
    replay_failed_node,
    run_chaos_suite,
)
from repro.core.failover_recovery import compare_mirror, recover_via_failover
from repro.obs import chrome_trace, critical_path, flush_overlap, validate_chrome_trace
from repro.sim.trace import Tracer

__all__ = ["SCALES", "WORKLOADS", "COUNTS", "Outcome"]

#: Exact work counts read from results, reported as per-layer metrics.
COUNTS = (
    "net.msgs", "net.bytes",
    "dsm.page_faults", "dsm.diffs_created", "dsm.diff_bytes",
    "dsm.barriers", "dsm.lock_acquires", "dsm.invalidations",
    "log.flushes", "log.records", "log.bytes",
    "disk.busy_s",
    "recovery.replays", "chaos.cases", "obs.spans",
)

#: ``NodeStats`` counter behind each ``dsm.*`` count.
_DSM_COUNTERS = {
    "dsm.page_faults": "page_faults",
    "dsm.diffs_created": "diffs_created",
    "dsm.diff_bytes": "diff_bytes_sent",
    "dsm.barriers": "barriers",
    "dsm.lock_acquires": "lock_acquires",
    "dsm.invalidations": "invalidations",
}

#: Inputs per scale.  ``full`` is sized so that one repetition (set-up
#: plus timed region) takes 4-7 s on the 2-core reference box, which is
#: what lets three repetitions of every workload fit the driver's time
#: cap; ``quick`` is the unit-test scale for the self-test.
SCALES: Dict[str, Dict[str, Any]] = {
    "full": {
        "sor": dict(n=128, iters=20),
        "paper": {
            "fft3d": dict(n=32, iters=14),
            "mg": dict(n=32, cycles=7),
            "shallow": dict(n=128, steps=28),
            "water": dict(molecules=216, steps=14),
        },
        "recovery": {
            "fft3d": dict(n=32, iters=4),
            "mg": dict(n=32, cycles=2),
            "shallow": dict(n=128, steps=6),
            "water": dict(molecules=216, steps=3),
        },
        "chaos": {
            "shallow": dict(n=32, steps=6),
            "water": dict(molecules=64, steps=3),
        },
        "chaos_seeds": 12,
        "obs": dict(n=128, steps=32),
    },
    "quick": {
        "sor": dict(n=128, iters=2),
        "paper": {
            "fft3d": dict(n=16, iters=4),
            "mg": dict(n=16, cycles=3),
            "shallow": dict(n=32, steps=6),
            "water": dict(molecules=64, steps=3),
        },
        "recovery": {
            "fft3d": dict(n=16, iters=2),
            "mg": dict(n=16, cycles=1),
            "shallow": dict(n=32, steps=3),
            "water": dict(molecules=64, steps=2),
        },
        "chaos": {
            "shallow": dict(n=32, steps=6),
            "water": dict(molecules=64, steps=3),
        },
        "chaos_seeds": 2,
        "obs": dict(n=32, steps=6),
    },
}

RECOVERY_SCHEMES = ("ml", "ccl", "failover")


@dataclass
class Outcome:
    """What one repetition did, apart from the host timings."""

    attempted: int = 0
    #: One line per failed operation; ``failed`` is its length.
    failures: List[str] = field(default_factory=list)
    sim_time_s: float = 0.0
    sim_log_bytes: int = 0
    sim_recovery_s: float = 0.0
    counts: Dict[str, float] = field(default_factory=lambda: dict.fromkeys(COUNTS, 0))
    #: Exact simulated quantities pinned in ``expected/``.
    digest: Dict[str, Any] = field(default_factory=dict)

    def op(self, ok: bool, what: str) -> None:
        """Account one operation (a verified run, a replay, a chaos case)."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def add_counters(self, counters: Dict[str, float]) -> None:
        for name, key in _DSM_COUNTERS.items():
            self.counts[name] += counters.get(key, 0)

    def add_run(self, label: str, result: Any) -> None:
        """Fold one failure-free ``RunResult`` into totals and digest."""
        agg = result.aggregate
        records = sum(s.get("records", 0) for s in result.log_summaries)
        busy = sum(d["busy_time"] for d in result.disk_stats)
        self.sim_time_s += result.total_time
        self.sim_log_bytes += result.total_log_bytes
        c = self.counts
        c["net.msgs"] += result.network_msgs
        c["net.bytes"] += result.network_bytes
        c["log.flushes"] += result.num_flushes
        c["log.records"] += records
        c["log.bytes"] += result.total_log_bytes
        c["disk.busy_s"] += busy
        self.add_counters(agg.counters)
        self.digest[label] = {
            "total_time": result.total_time,
            "network_msgs": result.network_msgs,
            "network_bytes": result.network_bytes,
            "num_flushes": result.num_flushes,
            "total_log_bytes": result.total_log_bytes,
            "log_records": records,
            "disk_busy_time": busy,
            "counters": dict(sorted(agg.counters.items())),
        }


def _system(app_name: str, kwargs: Dict[str, Any], nodes: int, protocol: str,
            **system_kwargs: Any) -> DsmSystem:
    return DsmSystem(
        make_app(app_name, **kwargs),
        ClusterConfig.ultra5(num_nodes=nodes),
        make_hooks_factory(protocol),
        protocol_name=protocol,
        **system_kwargs,
    )


def _run_all(systems: Dict[str, DsmSystem], clock: Any) -> Outcome:
    """Run each system to completion (timed), then verify its numerics."""
    out = Outcome()
    for label, system in systems.items():
        with clock:
            result = system.run()
        out.add_run(label, result)
        out.op(bool(system.app.verify(system)), f"{label}: numerics diverged")
    return out


# ----------------------------------------------------------------------
# failure-free workloads
# ----------------------------------------------------------------------
def setup_sor64(scale: Dict[str, Any], seed: int) -> Dict[str, DsmSystem]:
    return {"sor/ccl": _system("sor", scale["sor"], 64, "ccl")}


def setup_paper8(protocol: str, scale: Dict[str, Any], seed: int) -> Dict[str, DsmSystem]:
    return {
        f"{app}/{protocol}": _system(app, kwargs, 8, protocol)
        for app, kwargs in scale["paper"].items()
    }


# ----------------------------------------------------------------------
# recovery8: phase A is set-up, the timed region replays every victim
# ----------------------------------------------------------------------
def setup_recovery8(scale: Dict[str, Any], seed: int) -> List[Tuple[str, str, DsmSystem, List[CrashProbe], Any]]:
    """Failure-free runs with a crash probe on every rank (phase A)."""
    runs = []
    for app, kwargs in scale["recovery"].items():
        for scheme in RECOVERY_SCHEMES:
            system = _system(app, kwargs, 8, scheme,
                             replication=2 if scheme == "failover" else 1)
            probes = [CrashProbe(rank) for rank in range(8)]
            for probe in probes:
                system.add_probe(probe)
            result = system.run()
            for probe in probes:
                probe.finalize()
            runs.append((app, scheme, system, probes, result))
    return runs


def run_recovery8(runs: List[Tuple[str, str, DsmSystem, List[CrashProbe], Any]], clock: Any) -> Outcome:
    out = Outcome()
    for app, scheme, system, probes, result_a in runs:
        label = f"{app}/{scheme}"
        config = system.config
        times = []
        for victim, probe in enumerate(probes):
            snapshot = probe.snapshot
            plog = system.nodes[victim].hooks.log
            if scheme == "failover":
                with clock:
                    _promoted, _epoch, mirror, breakdown, stats, _n, _m = (
                        recover_via_failover(
                            config, system, victim, plog, snapshot.seal_count
                        )
                    )
                recovery_time = (breakdown["promotion"] + breakdown["meta_replay"]
                                 + breakdown["diff_refetch"])
                home_pages = [p for p, h in enumerate(system.homes) if h == victim]
                mismatches = compare_mirror(
                    mirror, snapshot, home_pages, config.page_size
                )
            else:
                with clock:
                    replay, recovery_time = replay_failed_node(
                        system.app, config, scheme, system, victim, plog,
                        snapshot.seal_count,
                    )
                mismatches = compare_state(replay, snapshot, config.page_size)
                stats = replay.stats
                out.counts["net.msgs"] += sum(replay.net.msgs_sent)
                out.counts["net.bytes"] += replay.net.total_bytes
                out.counts["disk.busy_s"] += replay.disk.busy_time
            out.op(not mismatches,
                   f"{label} victim {victim}: {mismatches[:2]}")
            out.add_counters(stats.counters)
            out.counts["recovery.replays"] += 1
            times.append(recovery_time)
        out.sim_recovery_s += sum(times)
        out.sim_time_s += sum(times)
        # the log that recovery consumed was written by phase A
        out.sim_log_bytes += result_a.total_log_bytes
        out.counts["log.bytes"] += result_a.total_log_bytes
        out.counts["log.flushes"] += result_a.num_flushes
        out.counts["log.records"] += sum(
            s.get("records", 0) for s in result_a.log_summaries
        )
        out.digest[label] = {
            "phase_a_total_time": result_a.total_time,
            "phase_a_log_bytes": result_a.total_log_bytes,
            "recovery_times": times,
        }
    return out


# ----------------------------------------------------------------------
# chaos4: many small faulted systems
# ----------------------------------------------------------------------
def setup_chaos4(scale: Dict[str, Any], seed: int) -> Dict[str, Any]:
    return {
        "factories": {a: partial(make_app, a, **kw) for a, kw in scale["chaos"].items()},
        "config": ClusterConfig.ultra5(num_nodes=4),
        "seeds": scale["chaos_seeds"],
        "first_seed": seed,
    }


def run_chaos4(state: Dict[str, Any], clock: Any) -> Outcome:
    out = Outcome()
    with clock:
        report = run_chaos_suite(
            state["factories"], state["config"], protocols=("ccl", "ml"),
            seeds=state["seeds"], first_seed=state["first_seed"],
        )
    for case in report.cases:
        out.op(case.ok, f"chaos: {case.repro_command()}")
        out.sim_time_s += case.crash_time
    out.counts["chaos.cases"] = len(report.cases)
    out.digest["suite"] = {
        "cases": len(report.cases),
        "crash_time_sum": out.sim_time_s,
        "stop_at_sum": sum(c.stop_at for c in report.cases),
        "fault_totals": dict(sorted(report.fault_totals.items())),
        "transport_totals": dict(sorted(report.transport_totals.items())),
    }
    return out


# ----------------------------------------------------------------------
# shallow8_obs: the only workload with tracing on
# ----------------------------------------------------------------------
def setup_shallow8_obs(scale: Dict[str, Any], seed: int) -> DsmSystem:
    return _system("shallow", scale["obs"], 8, "ccl", tracer=Tracer(enabled=True))


def run_shallow8_obs(system: DsmSystem, clock: Any) -> Outcome:
    out = Outcome()
    tracer = system.tracer
    with clock:
        result = system.run()
        document = chrome_trace(tracer)
        path = critical_path(tracer)
        overlap = flush_overlap(tracer)
    tracer.enabled = False
    out.add_run("shallow/ccl+trace", result)
    out.op(bool(system.app.verify(system)), "shallow/ccl+trace: numerics diverged")
    problems = validate_chrome_trace(document)
    out.op(not problems and bool(path), f"trace export: {problems[:2] or 'empty critical path'}")
    out.counts["obs.spans"] = len(tracer.spans)
    out.digest["trace"] = {
        "spans": len(tracer.spans),
        "edges": len(tracer.edges),
        "critical_segments": len(path),
        "total_flush_s": overlap.total_flush_s,
    }
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[Dict[str, Any], int], Any]
    run: Callable[[Any, Any], Outcome]
    #: Whether ``--seed`` changes the inputs (and so the digest).
    seeded: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("sor64_ccl", setup_sor64, _run_all),
        Workload("paper8_ccl", partial(setup_paper8, "ccl"), _run_all),
        Workload("paper8_ml", partial(setup_paper8, "ml"), _run_all),
        Workload("recovery8", setup_recovery8, run_recovery8),
        Workload("chaos4", setup_chaos4, run_chaos4, seeded=True),
        Workload("shallow8_obs", setup_shallow8_obs, run_shallow8_obs),
    )
}
