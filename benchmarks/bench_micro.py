"""Microbenchmarks for the vectorised diff engine and the simulator core.

Unlike the other benches (which regenerate paper artefacts), this one
times the *implementation's* hot kernels -- diff create/merge/apply,
the packed stable-log encoding, and raw simulator event throughput --
against the preserved pre-vectorisation references in
:mod:`repro.memory.reference`.  The numbers land in
``benchmark.extra_info`` and ``benchmark_results/micro.txt``; the
committed ``BENCH_perf.json`` (from ``make perf``) is the
tracked-over-time copy.

Run standalone for CI's perf-smoke job::

    python benchmarks/bench_micro.py --check   # correctness only, no timing gate
    python benchmarks/bench_micro.py           # timings to stdout
"""

import argparse
import json
import sys

from repro.harness.perf import (
    check_kernels,
    run_kernel_benchmarks,
)


def test_micro_kernels(benchmark, save_artifact):
    checked = check_kernels(cases=50)
    data = benchmark.pedantic(
        lambda: run_kernel_benchmarks(repeat=3), rounds=1, iterations=1
    )
    text = json.dumps(data, indent=2, sort_keys=True)
    save_artifact("micro", text)
    print("\n" + text)

    benchmark.extra_info["correctness_cases"] = checked
    for name, row in data.items():
        benchmark.extra_info[f"{name}_ns"] = row["ns_per_op"] if "ns_per_op" in row \
            else row.get("ns_per_event")
        if "speedup" in row:
            benchmark.extra_info[f"{name}_speedup"] = row["speedup"]

    # The headline acceptance number: merging two dense full-page diffs
    # must beat the per-word reference by a wide margin.
    assert data["merge_diffs_dense_fullpage"]["speedup"] >= 5.0
    # The dense-apply fast path (cached span + slice copy) must at least
    # keep parity with the reference's run loop; it regressed to 0.89x
    # once when per-call numpy-scalar extraction crept in.
    assert data["apply_diff_dense"]["speedup"] >= 0.95


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--check", action="store_true",
                   help="correctness only (CI mode): verify the vectorised "
                        "kernels against the references, no timing")
    p.add_argument("--repeat", type=int, default=5)
    args = p.parse_args(argv)

    if args.check:
        checked = check_kernels(cases=200)
        print(f"bench_micro --check: {checked} randomized cases OK "
              "(vectorized kernels byte-identical to references)")
        return 0

    checked = check_kernels(cases=50)
    data = run_kernel_benchmarks(repeat=args.repeat)
    print(json.dumps(data, indent=2, sort_keys=True))
    print(f"# correctness: {checked} cases OK", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
