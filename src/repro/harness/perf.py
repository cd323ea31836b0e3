"""The ``repro perf`` microbenchmark suite.

Measures the hot kernels the paper's protocols exercise at every
release/barrier -- diff creation, merging, application, the packed
wire/log encoding -- plus the simulator's raw event throughput and
end-to-end application wall times, and writes everything to
``BENCH_perf.json`` so later performance PRs have a recorded trajectory
to compare against.

Each diff kernel is timed twice: the production (vectorised) kernel and
the preserved pre-vectorisation reference from
:mod:`repro.memory.reference`, so the reported ``speedup`` is a live
measurement, not a changelog claim.  ``check_kernels`` runs the same
pairings for *correctness only* (randomised inputs, byte-equality
asserts) and is what CI's ``perf-smoke`` job executes -- no timing
gate, so slow shared runners cannot flake it.

This module reads the host's wall clock on purpose: it benchmarks real
CPU work, unlike everything under :mod:`repro.sim`, which must use
virtual time only.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from ..memory.diff import (
    Diff,
    apply_diff,
    create_diff,
    decode_diff,
    encode_diff,
    merge_diffs,
)
from ..memory.reference import (
    reference_apply_diff,
    reference_create_diff,
    reference_encode_diff,
    reference_merge_diffs,
)

__all__ = [
    "run_perf_suite",
    "run_kernel_benchmarks",
    "run_app_benchmarks",
    "run_log_truncation_bench",
    "run_target_headline",
    "time_app_run",
    "check_kernels",
    "write_perf_json",
    "append_perf_history",
]

#: Page size the diff kernels are benchmarked at (the simulator default).
BENCH_PAGE_BYTES = 4096


# ----------------------------------------------------------------------
# timing scaffolding
# ----------------------------------------------------------------------

def _time_ns_per_op(fn: Callable[[], Any], repeat: int = 5) -> float:
    """Best-of-``repeat`` nanoseconds per call, auto-calibrated.

    The inner iteration count is chosen so one timed batch takes at
    least ~2 ms, which keeps the clock-read overhead negligible without
    making the whole suite slow.
    """
    iters = 1
    while True:
        t0 = time.perf_counter_ns()  # lint: ignore[DET001] - benchmarks real work
        for _ in range(iters):
            fn()
        dt = time.perf_counter_ns() - t0  # lint: ignore[DET001]
        if dt >= 2_000_000 or iters >= 1_000_000:
            break
        iters *= 4
    best = dt / iters
    for _ in range(repeat - 1):
        t0 = time.perf_counter_ns()  # lint: ignore[DET001]
        for _ in range(iters):
            fn()
        dt = time.perf_counter_ns() - t0  # lint: ignore[DET001]
        best = min(best, dt / iters)
    return best


# ----------------------------------------------------------------------
# workload construction (deterministic)
# ----------------------------------------------------------------------

def _dense_pair() -> tuple:
    """Twin/current differing in every word (full-page diff)."""
    twin = np.zeros(BENCH_PAGE_BYTES, dtype=np.uint8)
    cur = np.empty(BENCH_PAGE_BYTES, dtype=np.uint8)
    cur.view(np.uint32)[:] = np.arange(BENCH_PAGE_BYTES // 4, dtype=np.uint32) + 1
    return twin, cur


def _scattered_pair(stride: int = 2) -> tuple:
    """Twin/current differing at every ``stride``-th word (worst-case runs)."""
    twin = np.zeros(BENCH_PAGE_BYTES, dtype=np.uint8)
    cur = twin.copy()
    cur.view(np.uint32)[::stride] = 0xDEADBEEF
    return twin, cur


def _random_pair(rng: np.random.Generator, density: float) -> tuple:
    twin = rng.integers(0, 256, BENCH_PAGE_BYTES, dtype=np.uint8)
    cur = twin.copy()
    nwords = BENCH_PAGE_BYTES // 4
    k = max(1, int(density * nwords))
    idx = rng.choice(nwords, size=k, replace=False)
    cur.view(np.uint32)[idx] ^= rng.integers(
        1, 2**32, k, dtype=np.uint64
    ).astype(np.uint32)
    return twin, cur


# ----------------------------------------------------------------------
# kernel benchmarks
# ----------------------------------------------------------------------

def run_kernel_benchmarks(repeat: int = 5) -> Dict[str, Dict[str, float]]:
    """ns/op for every hot kernel, vectorised vs reference."""
    dense_twin, dense_cur = _dense_pair()
    scat_twin, scat_cur = _scattered_pair()

    d_dense_a = create_diff(0, dense_twin, dense_cur)
    d_dense_b = create_diff(0, dense_twin, np.roll(dense_cur, 4))
    d_scat = create_diff(0, scat_twin, scat_cur)
    target = dense_twin.copy()
    packed = encode_diff(d_scat)

    kernels: Dict[str, Dict[str, Callable[[], Any]]] = {
        "create_diff_dense": {
            "new": lambda: create_diff(0, dense_twin, dense_cur),
            "ref": lambda: reference_create_diff(0, dense_twin, dense_cur),
        },
        "create_diff_scattered": {
            "new": lambda: create_diff(0, scat_twin, scat_cur),
            "ref": lambda: reference_create_diff(0, scat_twin, scat_cur),
        },
        "merge_diffs_dense_fullpage": {
            "new": lambda: merge_diffs(d_dense_a, d_dense_b),
            "ref": lambda: reference_merge_diffs(d_dense_a, d_dense_b),
        },
        "merge_diffs_scattered": {
            "new": lambda: merge_diffs(d_scat, d_dense_a),
            "ref": lambda: reference_merge_diffs(d_scat, d_dense_a),
        },
        "apply_diff_dense": {
            "new": lambda: apply_diff(d_dense_a, target),
            "ref": lambda: reference_apply_diff(d_dense_a, target),
        },
        "apply_diff_scattered": {
            "new": lambda: apply_diff(d_scat, target),
            "ref": lambda: reference_apply_diff(d_scat, target),
        },
        "stablelog_encode": {
            "new": lambda: encode_diff(d_scat),
            "ref": lambda: reference_encode_diff(d_scat),
        },
        "stablelog_decode": {
            "new": lambda: decode_diff(packed),
        },
    }

    out: Dict[str, Dict[str, float]] = {}
    for name, variants in kernels.items():
        row: Dict[str, float] = {
            "ns_per_op": _time_ns_per_op(variants["new"], repeat)
        }
        if "ref" in variants:
            row["reference_ns_per_op"] = _time_ns_per_op(variants["ref"], repeat)
            row["speedup"] = row["reference_ns_per_op"] / row["ns_per_op"]
        out[name] = {k: round(v, 2) for k, v in row.items()}
    out["message_instantiation"] = _message_instantiation_bench(repeat)
    out["sim_event_throughput"] = _sim_event_bench(repeat)
    return out


def _message_instantiation_bench(repeat: int) -> Dict[str, float]:
    """Construction rate of the slotted hot message/process types.

    Tracks the ``__slots__`` satellite: slotted dataclasses allocate no
    per-instance ``__dict__``, which this number makes visible.
    """
    from ..dsm.interval import VectorClock
    from ..dsm.messages import DiffBatch, PageRequest

    vt = VectorClock.zero(8)
    d = Diff(0)

    def body():
        PageRequest(1, 2)
        DiffBatch(0, 1, vt, [d])

    return {"ns_per_op": round(_time_ns_per_op(body, repeat), 2)}


def _sim_event_bench(repeat: int, events: int = 20_000) -> Dict[str, float]:
    """Raw engine throughput: timeout events processed per second.

    Yields bare floats — the canonical zero-allocation timeout idiom
    the DSM hot paths use (``Timeout`` is the validated wrapper form).
    """
    from ..sim.engine import Simulator

    def run_once():
        sim = Simulator()

        def body():
            for _ in range(events):
                yield 0.001

        sim.spawn(body(), name="bench")
        sim.run()

    ns = _time_ns_per_op(run_once, repeat=max(2, repeat - 2))
    return {
        "ns_per_event": round(ns / events, 2),
        "events_per_sec": round(events / (ns * 1e-9), 0),
    }


# ----------------------------------------------------------------------
# campaign headline: ``repro perf --target``
# ----------------------------------------------------------------------

def run_target_headline(
    repeat: int = 5,
    nodes: int = 64,
    app: str = "sor",
    scale: str = "bench",
    protocol: str = "ccl",
) -> Dict[str, Any]:
    """The speed-campaign headline numbers, as a minimal perf report.

    Two figures only: raw engine throughput (events/s) and the host
    wall-clock of one long 64-node application run -- the two numbers
    the event-loop rewrite is judged by.  Returns a report shaped like
    :func:`run_perf_suite` (so :func:`append_perf_history` accepts it)
    with an extra ``target`` block.
    """
    sim_row = _sim_event_bench(repeat)
    wall = time_app_run(app, protocol, nodes, scale)
    return {
        "schema": 1,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "kernels": {"sim_event_throughput": sim_row},
        "target": {
            "events_per_sec": sim_row["events_per_sec"],
            "ns_per_event": sim_row["ns_per_event"],
            "longrun_app": app,
            "longrun_nodes": nodes,
            "longrun_scale": scale,
            "longrun_protocol": protocol,
            "longrun_wall_s": wall,
        },
    }


# ----------------------------------------------------------------------
# end-to-end application wall times
# ----------------------------------------------------------------------

def time_app_run(app: str, protocol: str, nodes: int, scale: str) -> float:
    """Host wall-clock seconds of one full simulated application run.

    At 64 nodes this is the headline ``target.longrun_wall_s``, which
    ``check_perf_gate.py`` re-times against the committed trajectory.
    """
    from ..config import ClusterConfig
    from .runner import run_application

    config = ClusterConfig.ultra5(num_nodes=nodes)
    t0 = time.perf_counter()  # lint: ignore[DET001] - benchmarks real work
    run_application(app, protocol, config, scale)
    return round(time.perf_counter() - t0, 4)  # lint: ignore[DET001]


def run_app_benchmarks(
    apps: Optional[List[str]] = None, scale: str = "test", protocol: str = "ccl"
) -> Dict[str, float]:
    """Host wall-clock seconds for one full simulated run per app."""
    return {
        name: time_app_run(name, protocol, 8, scale)
        for name in apps or ["sor", "mg"]
    }


# ----------------------------------------------------------------------
# checkpoint-driven log truncation accounting
# ----------------------------------------------------------------------

def run_log_truncation_bench() -> Dict[str, float]:
    """Live/reclaimed log bytes for one checkpoint-truncated run.

    One small SHALLOW/ML recovery experiment with checkpoints every 4
    seals and a retention depth of 2, so the committed perf record
    tracks how many log bytes truncation reclaims (virtual quantities:
    deterministic, unlike the wall-clock numbers above).
    """
    from ..apps import make_app
    from ..config import ClusterConfig
    from ..core.recovery import run_recovery_experiment

    result = run_recovery_experiment(
        make_app("shallow", n=16, steps=8),
        ClusterConfig.ultra5(num_nodes=4),
        "ml",
        failed_nodes=(1,),
        checkpoint_every=4,
        retention=2,
    )
    a = result.phase_a
    return {
        "bytes_flushed": float(a.total_log_bytes),
        "live_log_bytes": float(a.live_log_bytes),
        "reclaimed_bytes": float(a.reclaimed_log_bytes),
        "recovery_ok": float(result.ok),
    }


# ----------------------------------------------------------------------
# correctness check (CI perf-smoke mode)
# ----------------------------------------------------------------------

def check_kernels(cases: int = 200, seed: int = 0) -> int:
    """Assert vectorised kernels match the references byte-for-byte.

    Randomised twin/current pairs across densities, covering create,
    merge (second wins on overlap), apply, and the packed encoding
    roundtrip.  Returns the number of cases checked; raises
    ``AssertionError`` on any divergence.
    """
    rng = np.random.default_rng(seed)
    checked = 0
    for i in range(cases):
        density = float(rng.choice([0.001, 0.01, 0.1, 0.5, 1.0]))
        twin1, cur1 = _random_pair(rng, density)
        twin2, cur2 = _random_pair(rng, density)

        d1 = create_diff(7, twin1, cur1)
        r1 = reference_create_diff(7, twin1, cur1)
        assert np.array_equal(d1.offsets, r1.offsets), "create_diff offsets"
        assert np.array_equal(d1.words, r1.words), "create_diff words"
        assert d1.nbytes == r1.nbytes, "create_diff nbytes"

        d2 = create_diff(7, twin2, cur2)
        m = merge_diffs(d1, d2)
        rm = reference_merge_diffs(r1, d2)
        assert np.array_equal(m.offsets, rm.offsets), "merge_diffs offsets"
        assert np.array_equal(m.words, rm.words), "merge_diffs words"
        assert m.nbytes == rm.nbytes, "merge_diffs nbytes"

        t_new = twin1.copy()
        t_ref = twin1.copy()
        assert apply_diff(m, t_new) == reference_apply_diff(rm, t_ref)
        assert np.array_equal(t_new, t_ref), "apply_diff contents"

        packed = encode_diff(d1)
        assert packed.size == d1.nbytes, "encode_diff size == modelled nbytes"
        assert np.array_equal(packed, reference_encode_diff(r1)), "encode bytes"
        rt = decode_diff(packed)
        assert np.array_equal(rt.offsets, d1.offsets), "decode offsets"
        assert np.array_equal(rt.words, d1.words), "decode words"
        checked += 1
    return checked


# ----------------------------------------------------------------------
# suite driver + JSON emission
# ----------------------------------------------------------------------

def run_perf_suite(
    apps: Optional[List[str]] = None,
    repeat: int = 5,
    scale: str = "test",
) -> Dict[str, Any]:
    """Full suite: correctness check, kernel timings, app wall times."""
    checked = check_kernels(cases=50)
    report: Dict[str, Any] = {
        "schema": 1,
        "page_bytes": BENCH_PAGE_BYTES,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "correctness_cases": checked,
        "kernels": run_kernel_benchmarks(repeat=repeat),
        "apps_wall_s": run_app_benchmarks(apps=apps, scale=scale),
        "log_truncation": run_log_truncation_bench(),
    }
    return report


def write_perf_json(report: Dict[str, Any], path: str) -> None:
    """Write the perf report as stable, diff-friendly JSON."""
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def append_perf_history(
    report: Dict[str, Any],
    path: str = "benchmark_results/history.jsonl",
) -> Dict[str, Any]:
    """Append one compact trajectory entry; returns the entry.

    ``history.jsonl`` is the committed perf record: one line per
    ``repro perf`` run with the timestamp, git revision, and the
    headline numbers (kernel ns/op, simulator events/s, and app wall
    times), so regressions show up as a diff in review instead of
    vanishing with the runner.  ``benchmarks/check_perf_gate.py`` reads
    the last line back as its regression baseline.
    """
    from ..obs.artifacts import git_rev

    entry: Dict[str, Any] = {
        "schema": 1,
        "ts": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "git_rev": git_rev(),
        "python": report.get("python"),
        "numpy": report.get("numpy"),
        "kernels_ns_per_op": {
            name: row["ns_per_op"]
            for name, row in report.get("kernels", {}).items()
            if row.get("ns_per_op") is not None
        },
        "apps_wall_s": dict(report.get("apps_wall_s", {})),
        "log_truncation": dict(report.get("log_truncation", {})),
    }
    sim = report.get("kernels", {}).get("sim_event_throughput")
    if sim:
        entry["sim_events_per_sec"] = sim.get("events_per_sec")
        entry["sim_ns_per_event"] = sim.get("ns_per_event")
    if report.get("target"):
        entry["target"] = dict(report["target"])
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry
