#!/usr/bin/env python3
"""Crash a node mid-run and watch coherence-centric recovery replay it.

Runs the Water molecular-dynamics workload (locks + barriers), crashes
node 5 at its final sealed interval, and recovers it twice -- once with
traditional message logging, once with coherence-centric logging --
verifying each time that the replayed node's memory image, page table,
and vector clock match the crash-point snapshot bit for bit.

Usage::

    python examples/crash_recovery_demo.py [app] [failed_node]
"""

import sys

from repro import ClusterConfig, make_app, run_recovery_experiment
from repro.dsm import DsmSystem
from repro.harness import app_kwargs


def main() -> None:
    app_name = sys.argv[1] if len(sys.argv) > 1 else "water"
    failed_node = int(sys.argv[2]) if len(sys.argv) > 2 else 5
    cluster = ClusterConfig.ultra5(num_nodes=8)
    kwargs = app_kwargs(app_name, "test")

    print(f"Workload: {app_name}   crash victim: node {failed_node}")
    baseline = DsmSystem(make_app(app_name, **kwargs), cluster).run()
    print(f"Failure-free execution: {baseline.total_time * 1e3:8.2f} ms "
          "(= the cost of re-execution from the initial state)")
    print()

    for protocol in ("ml", "ccl"):
        res = run_recovery_experiment(
            make_app(app_name, **kwargs), cluster, protocol,
            failed_nodes=(failed_node,),
        )
        (victim,) = res.victims
        status = "bit-exact" if res.ok else f"DIVERGED: {victim.mismatches[:3]}"
        change = 100.0 * (res.recovery_time / baseline.total_time - 1.0)
        c = victim.stats.counters
        print(f"{protocol.upper()}-recovery of node {failed_node} "
              f"(crash at seal {victim.at_seal}):")
        print(f"  recovery time : {res.recovery_time * 1e3:8.2f} ms "
              f"({change:+.1f}% vs re-execution)")
        print(f"  verification  : {status}")
        if protocol == "ml":
            print(f"  replay faults : {int(c.get('replay_faults', 0))} "
                  "(each a disk read of a logged page copy)")
        else:
            print(f"  prefetched    : {int(c.get('pages_prefetched', 0))} pages "
                  f"({int(c.get('prefetch_direct', 0))} direct, "
                  f"{int(c.get('prefetch_delta', 0))} delta, "
                  f"{int(c.get('prefetch_rebuilt', 0))} rebuilt; "
                  "zero replay faults)")
        print()

    print("CCL reconstructs every page the replay will touch at the start "
          "of each\ninterval, from writer-logged diffs -- the memory-miss "
          "idle time ML-recovery\npays at every fault simply never happens.")


if __name__ == "__main__":
    main()
