"""X2 -- extension: simultaneous multi-node failure recovery.

Beyond the paper (which evaluates single failures): crash 1, 2, then 4
of the 8 nodes at their final intervals and recover them all
concurrently under CCL.  Victims serve each other from their surviving
logs -- possible precisely because CCL makes every writer log its own
outgoing diffs durably.  Every victim's recovered state is verified
bit-exactly before its time counts.
"""


from repro.apps import make_app
from repro.core import run_recovery_experiment
from repro.dsm import DsmSystem
from repro.harness import app_kwargs, render_sweep, sweep

FAILURE_SETS = [(3,), (1, 5), (0, 2, 4, 6)]


def test_multi_failure_recovery(benchmark, ultra5, save_artifact):
    kwargs = app_kwargs("fft3d", "test")

    def body():
        reexec = DsmSystem(make_app("fft3d", **kwargs), ultra5).run().total_time
        out = {"reexec_s": reexec, "runs": {}}
        for failed in FAILURE_SETS:
            res = run_recovery_experiment(
                make_app("fft3d", **kwargs), ultra5, "ccl", failed_nodes=failed
            )
            assert res.ok, (failed, [v.mismatches for v in res.victims])
            out["runs"][failed] = res
        return out

    data = benchmark.pedantic(body, rounds=1, iterations=1)
    points = sweep(
        [(f"{len(f)} victim(s)", {"f": f}) for f in FAILURE_SETS],
        lambda label, p: {
            "recovery_s": data["runs"][p["f"]].recovery_time,
            "vs_reexec": data["runs"][p["f"]].recovery_time / data["reexec_s"],
            "slowest_victim": max(
                v.recovery_time for v in data["runs"][p["f"]].victims
            ),
        },
    )
    text = render_sweep(
        "X2: concurrent multi-failure CCL recovery (3D-FFT)", points
    )
    save_artifact("extension_multifailure", text)
    print("\n" + text)

    times = [data["runs"][f].recovery_time for f in FAILURE_SETS]
    benchmark.extra_info["recovery_times_s"] = [round(t, 4) for t in times]
    # victims replay concurrently: wall time grows sublinearly with the
    # victim count and stays below re-execution
    assert times[-1] < len(FAILURE_SETS[-1]) * times[0]
    assert all(t < data["reexec_s"] for t in times)
