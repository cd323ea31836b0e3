#!/usr/bin/env python3
"""Write your own workload against the DSM API.

Implements a small parallel histogram from scratch: each rank scans a
private shard of a data stream, accumulates a private histogram, and
merges it into the shared global histogram under a lock -- then rank 0
publishes the winner bin.  The app plugs into everything the library
offers: all three logging protocols and verified crash recovery.

Usage::

    python examples/custom_application.py
"""

import numpy as np

from repro import ClusterConfig, DsmSystem, make_hooks_factory
from repro import run_recovery_experiment
from repro.apps import DsmApplication, gather_global


class HistogramApp(DsmApplication):
    """Lock-merged parallel histogram over a deterministic data stream."""

    name = "histogram"
    synchronization = "locks and barriers"

    def __init__(self, items: int = 4096, bins: int = 64, rounds: int = 3,
                 seed: int = 99):
        self.items, self.bins, self.rounds, self.seed = items, bins, rounds, seed
        self.iterations = rounds
        self.data_set = f"{rounds} rounds over {items} items, {bins} bins"

    def _stream(self, rnd: int) -> np.ndarray:
        rng = np.random.RandomState(self.seed + rnd)
        return rng.randint(0, self.bins, size=self.items)

    def allocate(self, space, nprocs):
        space.allocate("hist", (self.bins,), np.int64,
                       init=np.zeros(self.bins, np.int64))
        space.allocate("winner", (self.rounds,), np.int64,
                       init=np.zeros(self.rounds, np.int64))

    def program(self, dsm):
        per = self.items // dsm.nprocs
        lo, hi = dsm.rank * per, (dsm.rank + 1) * per
        for rnd in range(self.rounds):
            local = np.bincount(self._stream(rnd)[lo:hi], minlength=self.bins)
            yield from dsm.compute(5.0 * per)
            # merge into the shared histogram under the lock
            yield from dsm.acquire(0)
            yield from dsm.read("hist")
            yield from dsm.write("hist")
            dsm.arr("hist")[:] += local
            yield from dsm.release(0)
            yield from dsm.barrier()
            if dsm.rank == 0:
                yield from dsm.read("hist")
                yield from dsm.write("winner", rnd, rnd + 1)
                dsm.arr("winner")[rnd] = int(dsm.arr("hist").argmax())
                # reset for the next round
                yield from dsm.write("hist")
                dsm.arr("hist")[:] = 0
            yield from dsm.barrier()

    def verify(self, system):
        expected = [
            int(np.bincount(self._stream(r), minlength=self.bins).argmax())
            for r in range(self.rounds)
        ]
        got = gather_global(system, "winner").tolist()
        return got == expected


def main() -> None:
    cluster = ClusterConfig.ultra5(num_nodes=8)
    app = HistogramApp()
    print(f"Custom app: {app.data_set} on 8 nodes")
    for protocol in ("none", "ml", "ccl"):
        system = DsmSystem(app, cluster, make_hooks_factory(protocol))
        result = system.run()
        ok = app.verify(system)
        print(f"  {protocol:>4}: {result.total_time * 1e3:7.2f} ms, "
              f"log {result.total_log_bytes / 1024:6.1f} KB, verified={ok}")

    res = run_recovery_experiment(HistogramApp(), cluster, "ccl",
                                  failed_nodes=(2,))
    print(f"  recovery of node 2 at seal {res.victims[0].at_seal}: "
          f"{res.recovery_time * 1e3:.2f} ms, bit-exact={res.ok}")


if __name__ == "__main__":
    main()
