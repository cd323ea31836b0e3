"""A1 -- ablation: CCL's flush/communication overlap.

Runs 3D-FFT under CCL with the overlap enabled (the paper's design:
flush issued alongside the diff round trip, double-buffered) and
disabled (synchronous flush at sync entry, like ML's discipline applied
to CCL's small log).  Isolates how much of CCL's low overhead comes
from the latency-tolerance technique vs. from the small log alone.
"""

from repro.apps import make_app
from repro.core import CCL, CCL_NO_OVERLAP, PolicyLogging
from repro.dsm import DsmSystem
from repro.harness import app_kwargs, render_sweep, sweep


def test_overlap_ablation(benchmark, ultra5, save_artifact):
    kwargs = app_kwargs("fft3d", "bench")

    def run_variant(overlap: bool) -> float:
        system = DsmSystem(
            make_app("fft3d", **kwargs),
            ultra5,
            lambda _i: PolicyLogging(CCL if overlap else CCL_NO_OVERLAP),
        )
        return system.run().total_time

    def body():
        baseline = DsmSystem(make_app("fft3d", **kwargs), ultra5).run().total_time
        return {
            "baseline": baseline,
            "with_overlap": run_variant(True),
            "without_overlap": run_variant(False),
        }

    times = benchmark.pedantic(body, rounds=1, iterations=1)
    points = sweep(
        [
            ("ccl+overlap", {}),
            ("ccl-no-overlap", {}),
        ],
        lambda label, _p: {
            "exec_s": times["with_overlap" if "no" not in label else "without_overlap"],
            "overhead_pct": 100
            * (
                times["with_overlap" if "no" not in label else "without_overlap"]
                / times["baseline"]
                - 1
            ),
        },
    )
    text = render_sweep("A1: CCL flush/communication overlap (3D-FFT)", points)
    save_artifact("ablation_overlap", text)
    print("\n" + text)

    benchmark.extra_info["overhead_with_overlap_pct"] = round(
        100 * (times["with_overlap"] / times["baseline"] - 1), 2
    )
    benchmark.extra_info["overhead_without_overlap_pct"] = round(
        100 * (times["without_overlap"] / times["baseline"] - 1), 2
    )
    # the overlap must be doing real work
    assert times["with_overlap"] < times["without_overlap"]
