"""A5 -- ablation: crash point vs. recovery time.

Crashes node 3 of 3D-FFT at increasing fractions of its execution and
measures CCL recovery time.  Recovery work grows with the amount of
logged execution to replay -- the "bounded rollback" the logging
protocol guarantees: the later the crash, the longer the replay, but
never longer than re-execution.
"""


from repro.apps import make_app
from repro.core import run_recovery_experiment
from repro.dsm import DsmSystem
from repro.harness import app_kwargs, render_sweep, sweep


def test_failure_point_ablation(benchmark, ultra5, save_artifact):
    kwargs = app_kwargs("fft3d", "test")

    def body():
        baseline = DsmSystem(make_app("fft3d", **kwargs), ultra5).run()
        total_seals = baseline.nodes[3].seal_count
        out = {"reexec_s": baseline.total_time, "points": {}}
        for frac in (0.25, 0.5, 0.75, 1.0):
            seal = max(1, int(round(frac * total_seals)))
            res = run_recovery_experiment(
                make_app("fft3d", **kwargs), ultra5, "ccl",
                failed_nodes=(3,), at_seal=seal,
            )
            assert res.ok, (frac, res.victims[0].mismatches[:3])
            out["points"][frac] = res.recovery_time
        return out

    data = benchmark.pedantic(body, rounds=1, iterations=1)
    points = sweep(
        [(f"{int(100 * f)}%", {"frac": f}) for f in sorted(data["points"])],
        lambda label, p: {
            "recovery_s": data["points"][p["frac"]],
            "vs_reexec": data["points"][p["frac"]] / data["reexec_s"],
        },
    )
    text = render_sweep(
        "A5: crash point vs CCL recovery time (3D-FFT)", points
    )
    save_artifact("ablation_failpoint", text)
    print("\n" + text)

    times = [data["points"][f] for f in sorted(data["points"])]
    benchmark.extra_info["recovery_times_s"] = [round(t, 4) for t in times]
    # recovery time grows with the crash point and never exceeds re-execution
    assert times == sorted(times)
    assert times[-1] < data["reexec_s"]
