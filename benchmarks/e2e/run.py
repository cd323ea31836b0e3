"""The repo's benchmark of record: one command, six whole-run workloads.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--reps N]
                                  [--quick] [--out FILE]

runs every workload -- each repetition in its own child interpreter,
one at a time, the next starting when the previous returns -- checks
the outputs, and prints every metric by name with its unit.  Without
``--trace`` it makes ``--reps`` untraced repetitions (end-to-end
metrics) and one more under ``cProfile`` (per-layer metrics).

The driver form adds ``--seconds S --trace 0|1`` and reads the last
line of stdout, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json
with ``--trace 0``, its per-layer metrics with ``--trace 1``.

See README.md in this directory for the workloads, the metrics, and
how to compare two result files.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = ROOT / "BENCHMARK.json"

#: End-to-end metrics that are simulated or counted, hence exact: any
#: change is a change of behaviour, not noise.  The host-time metrics
#: and their bounds live in BENCHMARK.json.
EXACT_END_TO_END = (
    {"name": "sim_time_s", "unit": "sim_s", "better": "lower", "bound": 0.0},
    {"name": "sim_log_mb", "unit": "MB", "better": "lower", "bound": 0.0},
    {"name": "sim_recovery_s", "unit": "sim_s", "better": "lower", "bound": 0.0},
    {"name": "fail_ratio", "unit": "ratio", "better": "lower", "bound": 0.0},
)

MIN_REPS = 3
DEFAULT_REPS = 5
CHILD_TIMEOUT_S = 170


def child_env() -> Dict[str, str]:
    """One thread, fixed hash seed, ``repro`` from this checkout."""
    env = dict(os.environ)
    env.update(
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"),
    )
    return env


def run_child(workload: str, scale: str, seed: int, profile: bool) -> Dict[str, Any]:
    """One repetition in a fresh interpreter; raises on a crashed child."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", workload,
         "--scale", scale, "--seed", str(seed), "--profile", str(int(profile))],
        env=child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: child exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def environment(args: argparse.Namespace) -> Dict[str, Any]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"  # the driver's checkout is not a git repository
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "seed": args.seed,
        "scale": args.scale,
        "threads": 1,
    }


# ----------------------------------------------------------------------
# correctness oracle
# ----------------------------------------------------------------------
def expected_path(scale: str, workload: str) -> Path:
    return HERE / "expected" / scale / f"{workload}.json"


def check_digest(sample: Dict[str, Any], pinned: Dict[str, Any], seed: int) -> None:
    """Count the pinned-digest comparison as one more operation."""
    if pinned["seed"] is not None and pinned["seed"] != seed:
        return  # seeded workload away from the seed its digest was pinned at
    sample["attempted"] += 1
    # the sample went through JSON already, so both sides compare as parsed
    digest, want = sample["digest"], pinned["digest"]
    if digest != want:
        differing = sorted(
            k for k in set(digest) | set(want) if digest.get(k) != want.get(k)
        )
        sample["failures"].append(f"digest differs from expected/ at {differing}")


def pin_digest(samples: List[Dict[str, Any]], workload: str, scale: str,
               seed: int) -> None:
    digests = [s["digest"] for s in samples]
    if any(d != digests[0] for d in digests):
        raise SystemExit(f"{workload}: repetitions disagree, refusing to pin")
    path = expected_path(scale, workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"seed": seed if samples[0]["seeded"] else None, "digest": digests[0]}
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------
def plan(args: argparse.Namespace) -> Tuple[int, float]:
    """Untraced repetitions to make at least, and seconds to measure at least."""
    if args.reps is not None:
        return args.reps, 0.0
    if args.trace == 1:
        return 1, 0.0
    if args.seconds is not None:
        return MIN_REPS, args.seconds
    return (1 if args.scale == "quick" else DEFAULT_REPS), 0.0


def per_layer_metrics(profiled: Dict[str, Any], wall: float,
                      spec: Dict[str, Any]) -> Dict[str, Any]:
    """BENCHMARK.json's per-layer metrics from the profiled repetition.

    ``wall`` is the untraced median the derived ratios are taken against.
    """
    values = dict(profiled["counts"])
    total = sum(v["self_s"] for v in profiled["layers"].values())
    for layer, v in profiled["layers"].items():
        values[f"{layer}.self_s"] = v["self_s"]
        values[f"{layer}.share"] = v["self_s"] / total
        values[f"{layer}.calls"] = v["calls"]
    values["sim.time_s"] = profiled["sim_time_s"]
    values["sim.log_mb"] = profiled["sim_log_mb"]
    values["sim.recovery_s"] = profiled["sim_recovery_s"]
    msgs = values["net.msgs"]
    values["run.host_us_per_msg"] = 1e6 * wall / msgs if msgs else 0.0
    values["run.trace_overhead_ratio"] = profiled["wall_s"] / wall
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"],
                    "better": m["better"]}
        for m in spec["per_layer"]
    }


def measure(workload: str, args: argparse.Namespace, spec: Dict[str, Any]) -> Dict[str, Any]:
    """Untraced repetitions, then (unless ``--trace 0``) a profiled one."""
    reps, budget = plan(args)
    plain: List[Dict[str, Any]] = []
    measured = 0.0
    while len(plain) < reps or measured < budget:
        sample = run_child(workload, args.scale, args.seed, profile=False)
        measured += sample["setup_s"] + sample["wall_s"]
        plain.append(sample)
    profiled = (run_child(workload, args.scale, args.seed, profile=True)
                if args.trace != 0 else None)

    samples = plain + ([profiled] if profiled else [])
    if args.pin:
        pin_digest(samples, workload, args.scale, args.seed)
    pinned = json.loads(expected_path(args.scale, workload).read_text())
    for sample in samples:
        check_digest(sample, pinned, args.seed)
    attempted = sum(s["attempted"] for s in samples)
    failures = [f for s in samples for f in s["failures"]]

    end_to_end: Dict[str, Any] = {}
    for metric in list(spec["end_to_end"]) + list(EXACT_END_TO_END):
        name = metric["name"]
        values = ([len(failures) / attempted] if name == "fail_ratio"
                  else [s[name] for s in plain])
        end_to_end[name] = {
            "unit": metric["unit"], "better": metric["better"],
            "bound": metric["bound"], "median": statistics.median(values),
            "min": min(values), "max": max(values), "n": len(values),
            "samples": values,
        }

    per_layer = (per_layer_metrics(profiled, end_to_end["wall_s"]["median"], spec)
                 if profiled else {})
    return {
        "reps": len(plain),
        "attempted": attempted, "failed": len(failures), "failures": failures,
        "end_to_end": end_to_end, "per_layer": per_layer,
    }


def _fmt(value: float) -> str:
    return f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"


def render(workload: str, report: Dict[str, Any]) -> str:
    lines = [f"== {workload}: {report['attempted']} operations, "
             f"{report['failed']} failed; end-to-end values are medians of "
             f"{report['reps']} repetitions (too few for a tail percentile)"]
    for name, m in report["end_to_end"].items():
        lines.append(
            f"  {name:<28} {_fmt(m['median'])} {m['unit']:<6} "
            f"min {m['min']:.6g}  max {m['max']:.6g}  n={m['n']}"
        )
    for name, m in report["per_layer"].items():
        lines.append(f"  {name:<28} {_fmt(m['value'])} {m['unit']}")
    lines.extend(f"  FAILED: {f}" for f in report["failures"])
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="first chaos seed; the other workloads are input-deterministic")
    parser.add_argument("--reps", type=int,
                        help=f"untraced repetitions (default {DEFAULT_REPS}; 1 with --quick)")
    parser.add_argument("--seconds", type=float,
                        help=f"repeat until this much set-up + run time was measured, at least {MIN_REPS} times")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver form: 0 = end-to-end metrics only, 1 = per-layer metrics")
    parser.add_argument("--quick", dest="scale", action="store_const",
                        const="quick", default="full",
                        help="test-scale inputs, one repetition")
    parser.add_argument("--out", help="write the full result document here")
    parser.add_argument("--pin", action="store_true",
                        help="rewrite expected/ from this run's digests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no src/repro under {ROOT}: nothing to benchmark")
    spec = json.loads(SPEC.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; know {names}")
        names = [args.workload]
    elif args.trace is not None:
        parser.error("--trace needs --workload")
    if args.reps is not None and args.reps < 1:
        parser.error("--reps must be at least 1")

    document = {"schema": 1, "env": environment(args), "workloads": {}}
    for name in names:
        report = measure(name, args, spec)
        document["workloads"][name] = report
        print(render(name, report), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")

    failed = sum(r["failed"] for r in document["workloads"].values())
    if args.trace is not None:
        report = document["workloads"][names[0]]
        block = report["per_layer"] if args.trace else report["end_to_end"]
        keys = spec["per_layer"] if args.trace else spec["end_to_end"]
        metrics = {
            m["name"]: {
                "value": block[m["name"]]["value" if args.trace else "median"],
                "unit": m["unit"],
            }
            for m in keys
        }
        print(json.dumps({
            "correct": failed == 0, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics,
        }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
