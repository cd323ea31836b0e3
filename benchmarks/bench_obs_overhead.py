"""S2 -- the telemetry layer's runtime cost.

Runs the same application three ways and reports wall-clock seconds:

* ``off``      -- tracer disabled, the default: every span/edge guard
  short-circuits on ``Tracer.enabled``;
* ``spans``    -- events, causal spans and message edges recorded;
* ``exported`` -- spans recorded, then the Chrome-trace export, the
  critical-path walk, and the flush-overlap metric computed (what
  ``repro timeline`` / ``repro critical-path`` pay per run).

Each variant is run once untimed (imports, allocator and caches warm),
then :data:`ROUNDS` times with the order of the three rotating from
round to round, and the *median* is reported: a single cold ``off``
followed by a single ``spans`` -- what this bench used to time -- read
+40 % on a build whose warm, interleaved overhead was +60-170 %.

The bound that matters is ``off`` vs an untraced build: tracing-off
must be free, which the pinned golden test
(tests/obs/test_byte_identity.py) checks for *values* and this bench
bounds for *wall time* -- recording must also stay cheap enough that
``--sanitize`` and the chaos suite's failure dumps remain usable.
"""

import gc
import statistics
import time

from repro.apps import make_app
from repro.core import CCL, PolicyLogging
from repro.dsm import DsmSystem
from repro.harness import app_kwargs, render_sweep, sweep
from repro.obs import LatencyRecorder, chrome_trace, critical_path, flush_overlap
from repro.sim.trace import Tracer

#: ``sor`` writes dense rows (one run per diff); ``shallow`` writes
#: column halos (tens of runs per diff), the shape that made recording a
#: diff's runs the dominant tracing cost.
APPS = ("sor", "shallow")
VARIANTS = ("off", "spans", "exported")
ROUNDS = 5


def _run(app: str, ultra5, variant: str) -> Tracer:
    tracer = Tracer(enabled=variant != "off")
    try:
        DsmSystem(
            make_app(app, **app_kwargs(app, "bench")),
            ultra5,
            lambda _i: PolicyLogging(CCL),
            tracer=tracer,
        ).run()
        if variant == "exported":
            chrome_trace(tracer)
            critical_path(tracer)
            flush_overlap(tracer)
    finally:
        tracer.enabled = False
    return tracer


def _measure(app: str, ultra5) -> dict:
    """Median wall seconds per variant over warm, interleaved rounds."""
    for variant in VARIANTS:
        recorded = _run(app, ultra5, variant)
    counts = {"spans": len(recorded.spans), "edges": len(recorded.edges)}
    del recorded
    samples = {variant: [] for variant in VARIANTS}
    for r in range(ROUNDS):
        for k in range(len(VARIANTS)):
            variant = VARIANTS[(r + k) % len(VARIANTS)]
            gc.collect()  # the previous system is cyclic garbage: not ours
            t0 = time.perf_counter()
            _run(app, ultra5, variant)
            samples[variant].append(time.perf_counter() - t0)
    times = {f"{v}_s": statistics.median(samples[v]) for v in VARIANTS}
    return {**times, **counts}


def test_obs_overhead(benchmark, ultra5, save_artifact):
    results = benchmark.pedantic(
        lambda: {app: _measure(app, ultra5) for app in APPS},
        rounds=1, iterations=1,
    )

    blocks = []
    for app, times in results.items():
        points = sweep(
            [(variant, {}) for variant in VARIANTS],
            lambda label, _p: {
                "wall_s": times[f"{label}_s"],
                "overhead_pct": 100 * (times[f"{label}_s"] / times["off_s"] - 1),
            },
        )
        blocks.append(render_sweep(
            f"telemetry overhead ({app}/ccl, bench scale, median of {ROUNDS} "
            f"warm interleaved rounds, {times['spans']} spans, "
            f"{times['edges']} edges)",
            points,
        ))
        benchmark.extra_info.update({
            f"{app}_{k}": round(v, 3) if isinstance(v, float) else v
            for k, v in times.items()
        })
    text = "\n\n".join(blocks)
    print(text)
    save_artifact("obs_overhead", text)

    # Events are recorded as plain tuples and built when first read (a
    # traced run builds no TraceEvent and no run table), spans and edges
    # are slotted, and the critical-path walk is indexed: recording reads
    # about +15-20 % (sor) and +24-36 % (shallow) locally, where building
    # every event and run table as it happened read +34-51 % and +54-64 %
    # (+173 % on shallow when runs were split per run).  The export adds
    # 10-35 points; its bound stays at 2x because a full collection of
    # the trace can land inside it.
    for app, times in results.items():
        off = max(times["off_s"], 0.05)
        assert times["spans_s"] < 1.5 * off, (app, times)
        assert times["exported_s"] < 2.0 * off, (app, times)


def test_latency_recorder_overhead(benchmark):
    """Bound the always-on streaming latency recorder's observe() cost.

    The recorder runs unconditionally in the lock/barrier/page-fetch
    paths (unlike spans it has no off switch), so its per-observation
    cost is the one number that must stay sub-microsecond-ish.  Bound
    it well below 5us/observe even on shared runners -- at the
    simulator's ~10-100 observations per virtual millisecond that keeps
    the recorder invisible next to event dispatch.
    """
    n = 200_000
    values = [1e-6 * (1 + (i % 997)) for i in range(n)]

    def body():
        rec = LatencyRecorder()
        observe = rec.observe
        for v in values:
            observe(v)
        return rec

    rec = benchmark(body)
    assert rec.count == n
    per_observe = benchmark.stats.stats.mean / n
    benchmark.extra_info["ns_per_observe"] = round(per_observe * 1e9, 1)
    assert per_observe < 5e-6, (
        f"LatencyRecorder.observe costs {per_observe * 1e9:.0f} ns -- "
        "too slow for always-on instrumentation"
    )
    # sanity: the histogram actually answers quantile queries
    assert 0 < rec.quantile(0.99) <= rec.max
