"""S1 -- the coherence sanitizer's runtime cost.

Runs the same application three ways and reports wall-clock seconds:

* ``plain``     -- tracer disabled (instrumentation guards short-circuit);
* ``traced``    -- structured events recorded, nothing checked;
* ``sanitized`` -- traced, then invariant-checked and recoverability-
  audited (what ``pytest --sanitize`` pays per run).

The interesting ratio is plain vs traced: event construction sits on
every protocol operation, so it must be near-free when off.  Checking
happens once, after the run, off any simulated critical path.
"""

import time

from repro.analysis import audit_recoverability, check_trace
from repro.apps import make_app
from repro.core import CCL, PolicyLogging
from repro.dsm import DsmSystem
from repro.harness import app_kwargs, render_sweep, sweep
from repro.sim.trace import Tracer


def _build(ultra5, traced: bool) -> DsmSystem:
    return DsmSystem(
        make_app("sor", **app_kwargs("sor", "bench")),
        ultra5,
        lambda _i: PolicyLogging(CCL),
        tracer=Tracer(enabled=traced),
    )


def test_sanitizer_overhead(benchmark, ultra5, save_artifact):
    def timed(fn):
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

    def body():
        plain = timed(lambda: _build(ultra5, False).run())

        traced_system = _build(ultra5, True)
        traced = timed(lambda: traced_system.run())

        checked_system = _build(ultra5, True)

        def run_and_check():
            checked_system.run()
            check_trace(checked_system.tracer).raise_if_failed()
            audit_recoverability(checked_system).raise_if_failed()

        sanitized = timed(run_and_check)
        return {
            "plain_s": plain,
            "traced_s": traced,
            "sanitized_s": sanitized,
            "events": len(traced_system.tracer),
        }

    times = benchmark.pedantic(body, rounds=1, iterations=1)

    points = sweep(
        [("plain", {}), ("traced", {}), ("sanitized", {})],
        lambda label, _p: {
            "wall_s": times[f"{label}_s"],
            "overhead_pct": 100 * (times[f"{label}_s"] / times["plain_s"] - 1),
        },
    )
    text = render_sweep(
        "sanitizer overhead (sor/ccl, bench scale, "
        f"{times['events']} trace events)",
        points,
    )
    print(text)
    save_artifact("sanitizer_overhead", text)

    benchmark.extra_info.update(
        {k: round(v, 3) if isinstance(v, float) else v for k, v in times.items()}
    )
    # sanity: the checked run must not be an order of magnitude slower
    assert times["sanitized_s"] < 20 * max(times["plain_s"], 0.05)
