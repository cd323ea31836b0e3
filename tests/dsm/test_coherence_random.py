"""Property-based coherence testing.

Generates random data-race-free SPMD programs (barrier phases with a
random disjoint write partition per round, plus lock-protected
read-modify-writes) and checks that every rank observes exactly the
memory a sequentially consistent execution would produce.  This is the
end-to-end correctness net under the HLRC protocol.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import gather_global
from tests.dsm.conftest import run_app

ELEMS = 256  # spans 4 pages of 256 bytes with int32
NPROCS = 4
CHUNKS = 16
CHUNK = ELEMS // CHUNKS


@st.composite
def barrier_programs(draw):
    """A list of rounds; each round maps chunk -> writing rank (or None)."""
    rounds = draw(st.integers(1, 4))
    plan = []
    for _ in range(rounds):
        owners = draw(
            st.lists(
                st.one_of(st.none(), st.integers(0, NPROCS - 1)),
                min_size=CHUNKS,
                max_size=CHUNKS,
            )
        )
        plan.append(owners)
    return plan


def reference_final(plan):
    ref = np.zeros(ELEMS, dtype=np.int32)
    for rnd, owners in enumerate(plan):
        for chunk, owner in enumerate(owners):
            if owner is not None:
                ref[chunk * CHUNK : (chunk + 1) * CHUNK] = (rnd + 1) * 100 + owner
    return ref


@settings(max_examples=25, deadline=None)
@given(plan=barrier_programs(), homes_seed=st.integers(0, 3))
def test_random_barrier_phases_match_sequential_reference(plan, homes_seed):
    observed = {}

    def alloc(space, nprocs):
        space.allocate("x", (ELEMS,), np.int32, init=np.zeros(ELEMS, np.int32))

    def homes(space, nprocs):
        # vary the home layout so coverage includes home==writer,
        # home==reader, and third-party homes
        return [(p + homes_seed) % nprocs for p in range(space.npages)]

    def program(dsm):
        for rnd, owners in enumerate(plan):
            for chunk, owner in enumerate(owners):
                if owner == dsm.rank:
                    lo, hi = chunk * CHUNK, (chunk + 1) * CHUNK
                    yield from dsm.write("x", lo, hi)
                    dsm.arr("x")[lo:hi] = (rnd + 1) * 100 + owner
            yield from dsm.barrier()
        yield from dsm.read("x")
        observed[dsm.rank] = dsm.arr("x").copy()

    _result, system = run_app(alloc, program, nprocs=NPROCS, homes=homes)
    ref = reference_final(plan)
    for rank in range(NPROCS):
        assert np.array_equal(observed[rank], ref), f"rank {rank} diverged"
    assert np.array_equal(gather_global(system, "x"), ref)


@settings(max_examples=15, deadline=None)
@given(
    increments=st.lists(
        st.tuples(st.integers(0, NPROCS - 1), st.integers(0, 7)),
        min_size=1,
        max_size=24,
    )
)
def test_random_lock_protected_increments_sum_correctly(increments):
    """Commutative read-modify-writes under locks reach the exact total."""
    counters = 8

    def alloc(space, nprocs):
        space.allocate("c", (counters,), np.int64, init=np.zeros(counters, np.int64))

    def program(dsm):
        mine = [c for (r, c) in increments if r == dsm.rank]
        for c in mine:
            yield from dsm.acquire(c)
            yield from dsm.read("c", c, c + 1)
            yield from dsm.write("c", c, c + 1)
            dsm.arr("c")[c] += 1
            yield from dsm.release(c)
        yield from dsm.barrier()
        yield from dsm.read("c")
        expected = np.bincount(
            [c for (_r, c) in increments], minlength=counters
        )
        assert np.array_equal(dsm.arr("c"), expected)

    run_app(alloc, program, nprocs=NPROCS)


@settings(max_examples=10, deadline=None)
@given(
    plan=barrier_programs(),
)
def test_mixed_reader_sets_see_consistent_data_mid_run(plan):
    """Readers validate after *every* round, not only at the end."""

    def alloc(space, nprocs):
        space.allocate("x", (ELEMS,), np.int32, init=np.zeros(ELEMS, np.int32))

    ref = np.zeros(ELEMS, dtype=np.int32)
    checkpoints = []
    for rnd, owners in enumerate(plan):
        for chunk, owner in enumerate(owners):
            if owner is not None:
                ref[chunk * CHUNK : (chunk + 1) * CHUNK] = (rnd + 1) * 100 + owner
        checkpoints.append(ref.copy())

    def program(dsm):
        for rnd, owners in enumerate(plan):
            for chunk, owner in enumerate(owners):
                if owner == dsm.rank:
                    lo, hi = chunk * CHUNK, (chunk + 1) * CHUNK
                    yield from dsm.write("x", lo, hi)
                    dsm.arr("x")[lo:hi] = (rnd + 1) * 100 + owner
            yield from dsm.barrier()
            # Reading a chunk here while its next-round writer races ahead
            # would be a data race (unordered under release consistency),
            # so only chunks idle in round rnd+1 are race-free to check.
            next_owners = plan[rnd + 1] if rnd + 1 < len(plan) else [None] * CHUNKS
            safe = [c for c in range(CHUNKS) if next_owners[c] is None]
            for c in safe:
                lo, hi = c * CHUNK, (c + 1) * CHUNK
                yield from dsm.read("x", lo, hi)
                assert np.array_equal(
                    dsm.arr("x")[lo:hi], checkpoints[rnd][lo:hi]
                ), f"rank {dsm.rank} inconsistent chunk {c} after round {rnd}"

    run_app(alloc, program, nprocs=NPROCS)
