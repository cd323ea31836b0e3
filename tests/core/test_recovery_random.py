"""Property-based recovery testing.

Random data-race-free programs + random crash points: recovery must
reproduce the victim's crash-point state exactly, for both logging
protocols.  This is the strongest correctness net in the suite -- it
exercises diff reconstruction, version-exact prefetch, update-event
replay, and window-tagged notice replay under arbitrary interleavings.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import ClusterConfig
from repro.core import run_recovery_experiment

NPROCS = 4
ELEMS = 256
CHUNKS = 8
CHUNK = ELEMS // CHUNKS


class PlanApp:
    """Executes a random plan of write rounds separated by barriers."""

    name = "plan-app"

    def __init__(self, plan, with_locks=False):
        self.plan = plan
        self.with_locks = with_locks

    def allocate(self, space, nprocs):
        space.allocate("x", (ELEMS,), np.int32, init=np.zeros(ELEMS, np.int32))
        if self.with_locks:
            space.allocate("c", (4,), np.int64, init=np.zeros(4, np.int64))

    def program(self, dsm):
        for rnd, owners in enumerate(self.plan):
            for chunk, owner in enumerate(owners):
                if owner == dsm.rank:
                    lo, hi = chunk * CHUNK, (chunk + 1) * CHUNK
                    yield from dsm.write("x", lo, hi)
                    dsm.arr("x")[lo : hi : 1 + (rnd % 3)] = rnd * 100 + owner + 1
            if self.with_locks and rnd % 2 == 0:
                c = rnd % 4
                yield from dsm.acquire(c)
                yield from dsm.read("c", c, c + 1)
                yield from dsm.write("c", c, c + 1)
                dsm.arr("c")[c] += dsm.rank + 1
                yield from dsm.release(c)
            yield from dsm.barrier()
            # read a rotating chunk (may fault, may hit cache) -- but
            # only one that nobody writes in the NEXT round, otherwise
            # the read would race (release consistency leaves it
            # unordered, so even the failure-free outcome is undefined)
            nxt = self.plan[rnd + 1] if rnd + 1 < len(self.plan) else [None] * CHUNKS
            for probe in range(CHUNKS):
                chunk = (dsm.rank + rnd + probe) % CHUNKS
                if nxt[chunk] is None:
                    yield from dsm.read("x", chunk * CHUNK, (chunk + 1) * CHUNK)
                    break


plans = st.lists(
    st.lists(
        st.one_of(st.none(), st.integers(0, NPROCS - 1)),
        min_size=CHUNKS,
        max_size=CHUNKS,
    ),
    min_size=2,
    max_size=4,
)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    plan=plans,
    protocol=st.sampled_from(["ml", "ccl"]),
    failed_node=st.integers(0, NPROCS - 1),
    data=st.data(),
)
def test_random_program_recovery_is_bit_exact(plan, protocol, failed_node, data):
    cfg = ClusterConfig.ultra5(num_nodes=NPROCS, page_size=256)
    total_seals = len(plan)  # barrier-only programs: one seal per round
    at_seal = data.draw(st.integers(1, total_seals), label="at_seal")
    res = run_recovery_experiment(
        PlanApp(plan), cfg, protocol, failed_nodes=(failed_node,), at_seal=at_seal
    )
    assert res.ok, (protocol, failed_node, at_seal, res.victims[0].mismatches)


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    plan=plans,
    protocol=st.sampled_from(["ml", "ccl"]),
    failed_node=st.integers(0, NPROCS - 1),
)
def test_random_lock_program_recovery_is_bit_exact(plan, protocol, failed_node):
    """Lock-bearing programs exercise window-tagged notice replay."""
    cfg = ClusterConfig.ultra5(num_nodes=NPROCS, page_size=256)
    res = run_recovery_experiment(
        PlanApp(plan, with_locks=True), cfg, protocol, failed_nodes=(failed_node,)
    )
    assert res.ok, (protocol, failed_node, res.victims[0].mismatches)


@pytest.mark.parametrize("protocol", ["ml", "ccl"])
def test_recovery_with_false_sharing(protocol):
    """All ranks write disjoint words of the same page; recovery must
    reassemble the multi-writer merges exactly."""
    plan = [[r % NPROCS for r in range(CHUNKS)] for _ in range(3)]
    cfg = ClusterConfig.ultra5(num_nodes=NPROCS, page_size=1024)  # 1 page
    res = run_recovery_experiment(PlanApp(plan), cfg, protocol, failed_nodes=(2,))
    assert res.ok, res.victims[0].mismatches
