"""One repetition of one workload in a fresh interpreter.

``run.py`` starts this script once per repetition, so every sample of
``setup_s`` pays the imports, every ``peak_rss_mb`` is the high-water
mark of exactly one run, and no repetition inherits a warm heap from
the one before.  Prints one JSON object on the last line of stdout.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up time starts before the heavy imports

import argparse
import cProfile
import json
import pstats
import resource
import sys
from typing import Any, Dict, Optional


class Clock:
    """Accumulates wall and CPU time (and the profile) over ``with`` blocks."""

    def __init__(self, profiler: Optional[cProfile.Profile]):
        self.profiler = profiler
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def __enter__(self) -> "Clock":
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        if self.profiler is not None:
            self.profiler.enable()
        return self

    def __exit__(self, *exc: Any) -> None:
        if self.profiler is not None:
            self.profiler.disable()
        self.cpu_s += time.process_time() - self._cpu0
        self.wall_s += time.perf_counter() - self._wall0


def run_once(workload: str, scale: str, seed: int, profile: bool) -> Dict[str, Any]:
    import layers
    import workloads

    wl = workloads.WORKLOADS[workload]
    state = wl.setup(workloads.SCALES[scale], seed)
    setup_s = time.perf_counter() - _T0

    clock = Clock(cProfile.Profile() if profile else None)
    outcome = wl.run(state, clock)

    sample: Dict[str, Any] = {
        "setup_s": setup_s,
        "wall_s": clock.wall_s,
        "cpu_s": clock.cpu_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_time_s": outcome.sim_time_s,
        "sim_log_mb": outcome.sim_log_bytes / (1024.0 * 1024.0),
        "sim_recovery_s": outcome.sim_recovery_s,
        "attempted": outcome.attempted,
        "failures": outcome.failures,
        "counts": outcome.counts,
        "digest": outcome.digest,
        "seeded": wl.seeded,
    }
    if profile:
        sample["layers"] = layers.attribute(pstats.Stats(clock.profiler))
    return sample


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--scale", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--profile", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sample = run_once(args.workload, args.scale, args.seed, bool(args.profile))
    sys.stdout.write(json.dumps(sample) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
