"""Unit + property tests for vector clocks and interval records."""

import pickle
import random
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsm import DsmSystem, IntervalRecord, IntervalTable, VectorClock
from repro.dsm.interval import NoticeBatch, cut_of
from repro.errors import ProtocolError
from repro.memory import PageState
from tests.dsm.conftest import MiniApp, small_config

vcs = st.lists(st.integers(0, 20), min_size=4, max_size=4).map(VectorClock)


class TestVectorClock:
    def test_zero(self):
        vt = VectorClock.zero(3)
        assert vt.as_tuple() == (0, 0, 0)
        assert vt.total == 0

    def test_tick_increments_one_component(self):
        vt = VectorClock.zero(3).tick(1)
        assert vt.as_tuple() == (0, 1, 0)

    def test_tick_is_pure(self):
        a = VectorClock.zero(2)
        b = a.tick(0)
        assert a.as_tuple() == (0, 0) and b.as_tuple() == (1, 0)

    def test_merge_componentwise_max(self):
        a = VectorClock((1, 5, 0))
        b = VectorClock((2, 3, 4))
        assert a.merge(b).as_tuple() == (2, 5, 4)

    def test_dominates_partial_order(self):
        a = VectorClock((2, 2))
        b = VectorClock((1, 2))
        c = VectorClock((2, 1))
        assert a.dominates(b) and a.dominates(c)
        assert not b.dominates(c) and not c.dominates(b)
        assert a.dominates(a)

    def test_covers_interval(self):
        vt = VectorClock((2, 0))
        assert vt.covers_interval(0, 0)
        assert vt.covers_interval(0, 1)
        assert not vt.covers_interval(0, 2)
        assert not vt.covers_interval(1, 0)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ProtocolError):
            VectorClock((1,)).merge(VectorClock((1, 2)))

    def test_negative_component_rejected(self):
        with pytest.raises(ProtocolError):
            VectorClock((-1, 0))

    def test_equality_and_hash(self):
        assert VectorClock((1, 2)) == VectorClock((1, 2))
        assert hash(VectorClock((1, 2))) == hash(VectorClock((1, 2)))
        assert VectorClock((1, 2)) != VectorClock((2, 1))

    def test_nbytes(self):
        assert VectorClock.zero(8).nbytes == 32

    @settings(max_examples=100, deadline=None)
    @given(a=vcs, b=vcs)
    def test_property_merge_commutative_and_dominating(self, a, b):
        m = a.merge(b)
        assert m == b.merge(a)
        assert m.dominates(a) and m.dominates(b)

    @settings(max_examples=100, deadline=None)
    @given(a=vcs, b=vcs, c=vcs)
    def test_property_merge_associative(self, a, b, c):
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    @settings(max_examples=100, deadline=None)
    @given(a=vcs, b=vcs)
    def test_property_total_monotone_under_dominance(self, a, b):
        if a.dominates(b):
            assert a.total >= b.total


class TestIntervalRecord:
    def test_nbytes_accounting(self):
        r = IntervalRecord(1, 0, VectorClock((1, 0)), (3, 4, 5))
        assert r.nbytes == IntervalRecord.META_BYTES + 8 + 12

    def test_key(self):
        r = IntervalRecord(2, 7, VectorClock.zero(3), ())
        assert r.key == (2, 7)


class TestIntervalTable:
    def make_record(self, node, index, vt_vals, pages=()):
        return IntervalRecord(node, index, VectorClock(vt_vals), tuple(pages))

    def test_add_and_duplicate(self):
        t = IntervalTable()
        r = self.make_record(0, 0, (1, 0))
        assert t.add(r) is True
        assert t.add(r) is False
        assert len(t) == 1
        assert (0, 0) in t

    def test_get_unknown_raises(self):
        t = IntervalTable()
        with pytest.raises(ProtocolError):
            t.get(0, 3)

    def test_records_not_covered_filters_and_orders(self):
        t = IntervalTable()
        r00 = self.make_record(0, 0, (1, 0))
        r01 = self.make_record(0, 1, (2, 1))
        r10 = self.make_record(1, 0, (0, 1))
        t.add_all([r01, r10, r00])
        out = t.records_not_covered_by(VectorClock((1, 0)))
        # r00 covered (vt[0]=1 >= 0+1); r10 and r01 not; ordered by vt.total
        assert out == [r10, r01]

    def test_records_not_covered_causal_order_is_linear_extension(self):
        t = IntervalTable()
        recs = [
            self.make_record(0, 0, (1, 0, 0)),
            self.make_record(1, 0, (1, 1, 0)),  # saw node0's interval
            self.make_record(0, 1, (2, 1, 0)),  # saw node1's interval
            self.make_record(2, 0, (0, 0, 1)),  # concurrent with all
        ]
        t.add_all(recs)
        out = t.records_not_covered_by(VectorClock.zero(3))
        pos = {r.key: i for i, r in enumerate(out)}
        assert pos[(0, 0)] < pos[(1, 0)] < pos[(0, 1)]

    def test_all_records(self):
        t = IntervalTable()
        r1 = self.make_record(0, 0, (1, 0))
        r2 = self.make_record(1, 0, (1, 1))
        t.add_all([r2, r1])
        assert t.all_records() == [r1, r2]


    def test_add_below_the_prune_floor_is_rejected(self):
        """A late duplicate of a pruned record must not resurrect it."""
        t = IntervalTable()
        r00 = self.make_record(0, 0, (1, 0))
        r01 = self.make_record(0, 1, (2, 0))
        t.add_all([r00, r01])
        assert t.prune_covered_by(VectorClock((1, 0))) == 1
        size = t.nbytes
        assert t.add(r00) is False
        assert len(t) == 1 and (0, 0) not in t and t.nbytes == size
        assert t.records_not_covered_by(VectorClock.zero(2)) == [r01]
        # nothing is left for a later prune to drop (and count) again
        assert t.prune_covered_by(VectorClock((1, 0))) == 0
        # a covered record the table never held is just as unwanted
        assert t.add(self.make_record(1, 0, (0, 1))) is True
        assert t.prune_covered_by(VectorClock((1, 3))) == 1
        assert t.add(self.make_record(1, 2, (0, 3))) is False
        assert t.add(self.make_record(1, 3, (0, 4))) is True
        assert len(t) == 2

    def test_record_nbytes_is_computed_once_and_survives_pickling(self):
        r = self.make_record(1, 0, (1, 0), pages=(3, 4))
        assert r.nbytes == r.nbytes == IntervalRecord.META_BYTES + 8 + 8
        clone = pickle.loads(pickle.dumps(r))
        assert clone == r and clone.nbytes == r.nbytes


# ----------------------------------------------------------------------
# the trusted-construction algebra: tick / merge / join
# ----------------------------------------------------------------------
def fresh_max(a: VectorClock, b: VectorClock) -> VectorClock:
    """Component-wise maximum built through the validating constructor."""
    return VectorClock(max(x, y) for x, y in zip(a.as_tuple(), b.as_tuple()))


class TestClockAlgebra:
    @settings(max_examples=100, deadline=None)
    @given(base=vcs, clocks=st.lists(vcs, max_size=6))
    def test_join_is_the_left_fold_of_merge(self, base, clocks):
        joined = base.join(clocks)
        assert joined == reduce(VectorClock.merge, clocks, base)
        assert joined.total == sum(joined.as_tuple())
        # generators are as good as lists
        assert base.join(c for c in clocks) == joined

    def test_join_of_nothing_is_the_base_itself(self):
        base = VectorClock((1, 2))
        assert base.join([]) is base

    @settings(max_examples=100, deadline=None)
    @given(a=vcs, b=vcs)
    def test_merge_may_return_an_operand_but_never_mutates(self, a, b):
        before = (a.as_tuple(), b.as_tuple())
        m = a.merge(b)
        assert m == fresh_max(a, b)
        assert m.total == fresh_max(a, b).total
        assert (a.as_tuple(), b.as_tuple()) == before
        if a.dominates(b):
            assert m is a
        elif b.dominates(a):
            assert m is b

    @settings(max_examples=100, deadline=None)
    @given(a=vcs, b=vcs, node=st.integers(0, 3))
    def test_derived_clocks_pass_validation_and_pickle(self, a, b, node):
        for derived in (a.tick(node), a.merge(b), a.join([b, b.tick(node)])):
            rebuilt = VectorClock(derived.as_tuple())  # width, non-negative
            assert rebuilt == derived and len(rebuilt) == 4
            assert rebuilt.total == derived.total
            clone = pickle.loads(pickle.dumps(derived))
            assert clone == derived and clone.total == derived.total
            assert hash(clone) == hash(derived)
        assert a.tick(node).total == a.total + 1

    def test_width_mismatch_raises_from_merge_dominates_and_join(self):
        narrow, wide = VectorClock((1,)), VectorClock((1, 2))
        for op in (
            lambda: wide.merge(narrow),
            lambda: wide.dominates(narrow),
            lambda: narrow.dominates(wide),
            lambda: wide.join([wide, narrow]),
            lambda: narrow.join([wide]),
        ):
            with pytest.raises(ProtocolError, match="width mismatch"):
                op()

    def test_public_constructor_still_validates(self):
        with pytest.raises(ProtocolError, match="negative"):
            VectorClock([3, -1])
        assert VectorClock([1.0, 2]).as_tuple() == (1, 2)  # coerces to int


# ----------------------------------------------------------------------
# IntervalTable pruning: the floor vs a table that rescans from slot 0
# ----------------------------------------------------------------------
class RescanTable:
    """Reference: a dict of records, pruned by a full scan every time."""

    def __init__(self, width):
        self.records = {}
        self.floor = [0] * width

    def add(self, r):
        if r.index < self.floor[r.node] or r.key in self.records:
            return False
        self.records[r.key] = r
        return True

    def prune(self, vt):
        self.floor = [max(f, v) for f, v in zip(self.floor, vt.as_tuple())]
        gone = [k for k in self.records if k[1] < self.floor[k[0]]]
        for k in gone:
            del self.records[k]
        return len(gone)

    def not_covered_by(self, vt):
        out = [r for r in self.records.values() if r.index >= vt[r.node]]
        return sorted(out, key=lambda r: (r.vt.total, r.node, r.index))


table_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 2), st.integers(0, 7)),
        st.tuples(st.just("prune"), st.lists(st.integers(0, 8), min_size=3,
                                             max_size=3)),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(ops=table_ops, probe=st.lists(st.integers(0, 8), min_size=3, max_size=3))
def test_property_prune_floor_matches_full_rescan(ops, probe):
    table, ref = IntervalTable(), RescanTable(3)
    for op in ops:
        if op[0] == "add":
            _, node, index = op
            vt = [0, 0, 0]
            vt[node] = index + 1
            r = IntervalRecord(node, index, VectorClock(vt), (index,))
            assert table.add(r) == ref.add(r)
        else:
            assert table.prune_covered_by(VectorClock(op[1])) == ref.prune(
                VectorClock(op[1]))
        assert len(table) == len(ref.records)
        assert table.nbytes == sum(r.nbytes for r in ref.records.values())
    assert table.records_not_covered_by(VectorClock(probe)) == ref.not_covered_by(
        VectorClock(probe))
    assert table.all_records() == ref.not_covered_by(VectorClock.zero(3))
    for key in ref.records:
        assert key in table


# ----------------------------------------------------------------------
# one clock merge per notice batch == the per-record loop it replaced
# ----------------------------------------------------------------------
def per_record_apply_notices(node, records):
    """The per-record reference: skip against, and advance, the *running*
    clock one record at a time, inserting every applied record (what
    ``HlrcNode._apply_notices`` did before it merged a batch's ``cut``
    once and stopped inserting what the barrier prunes next)."""
    to_invalidate, seen = [], set()
    for r in records:
        if node.vt.covers_interval(r.node, r.index):
            continue
        node.table.add(r)
        if r.node != node.id:
            for p in r.pages:
                if p in seen:
                    continue
                entry = node.pagetable.entry(p)
                if entry.home == node.id:
                    continue
                if entry.state is PageState.INVALID:
                    continue
                if entry.version is not None and entry.version.dominates(r.vt):
                    continue
                seen.add(p)
                to_invalidate.append(p)
        node.vt = node.vt.merge(r.vt)
    for p in to_invalidate:
        node.pagetable.invalidate(p)
        node.stats.count("invalidations")


class Peer:
    """A model node: a clock and a table, advanced per record."""

    def __init__(self, ident, n):
        self.id = ident
        self.vt = VectorClock.zero(n)
        self.table = IntervalTable()

    def seal(self, pages):
        index = self.vt[self.id]
        self.vt = self.vt.tick(self.id)
        record = IntervalRecord(self.id, index, self.vt, tuple(sorted(pages)))
        self.table.add(record)
        return record

    def receive(self, records):
        for r in records:
            if not self.vt.covers_interval(r.node, r.index):
                self.table.add(r)
                self.vt = self.vt.merge(r.vt)


NODES, PAGES = 4, 12


def fresh_node0():
    """Node 0 of an idle 4-node system, with a log of its invalidations."""
    def alloc(space, nprocs):
        space.allocate("x", (PAGES * 64,), np.int32)

    system = DsmSystem(MiniApp(alloc, lambda dsm: iter(())), small_config(NODES))
    assert system.space.npages == PAGES
    node = system.nodes[0]
    log = []
    node.pagetable.on_transition = (
        lambda page, old, new, reason: log.append((page, old, new, reason)))
    return node, log


@pytest.mark.parametrize("seed", range(25))
def test_batch_join_matches_per_record_reference(seed):
    """Seeded causally ordered histories: same clock, table, invalidations."""
    rng = random.Random(seed)
    batch, batch_log = fresh_node0()
    ref, ref_log = fresh_node0()
    peers = {q: Peer(q, NODES) for q in range(1, NODES)}
    history = []
    delivered = skipped = barriers = 0
    for _step in range(180):
        kind = rng.choice(["seal", "seal", "gossip", "deliver", "deliver",
                           "barrier", "own", "refetch", "prune"])
        if kind == "seal":
            peer = peers[rng.randrange(1, NODES)]
            history.append(
                peer.seal(rng.sample(range(PAGES), rng.randint(0, 4))))
        elif kind == "gossip":
            dst, src = rng.sample(range(NODES), 2)
            if dst != 0:
                table = ref.table if src == 0 else peers[src].table
                peers[dst].receive(table.records_not_covered_by(peers[dst].vt))
        elif kind == "deliver":
            src = peers[rng.randrange(1, NODES)]
            records = src.table.records_not_covered_by(ref.vt)
            # noise a grant may carry: repeats and already-covered records
            records += rng.sample(records, rng.randint(0, len(records)))
            covered = [r for r in history if ref.vt.covers_interval(*r.key)]
            records += rng.sample(covered, min(len(covered), rng.randint(0, 3)))
            records.sort(key=lambda r: (r.vt.total, r.node, r.index))
            delivered += len(records)
            skipped += sum(ref.vt.covers_interval(*r.key) for r in records)
            assert list(batch._apply_notices(
                list(records), cut_of(records, NODES))) == []
            per_record_apply_notices(ref, records)
        elif kind == "barrier":
            # a release: merged and counted, never inserted, then pruned
            src = peers[rng.randrange(1, NODES)]
            records = src.table.records_not_covered_by(ref.vt)
            barriers += bool(records)
            assert list(batch._apply_notices(
                records, cut_of(records, NODES), barrier=True)) == []
            per_record_apply_notices(ref, records)
            assert (batch.table.prune_covered_by(batch.vt, records)
                    == ref.table.prune_covered_by(ref.vt))
        elif kind == "own":
            for node in (batch, ref):
                index = node.vt[0]
                node.vt = node.vt.tick(0)
                node.table.add(IntervalRecord(0, index, node.vt, (index % PAGES,)))
            history.append(ref.table.get(0, ref.vt[0] - 1))
        elif kind == "refetch":
            page = rng.randrange(PAGES)
            version = rng.choice([ref.vt, VectorClock.zero(NODES)])
            for node in (batch, ref):
                entry = node.pagetable.entry(page)
                if entry.home != 0:
                    node.pagetable.set_state(page, PageState.CLEAN, "fill")
                    entry.version = version
        else:
            assert (batch.table.prune_covered_by(batch.vt)
                    == ref.table.prune_covered_by(ref.vt))
        assert batch.vt == ref.vt
        assert batch.vt.total == ref.vt.total
        assert batch.table.all_records() == ref.table.all_records()
        assert len(batch.table) == len(ref.table)
        assert batch_log == ref_log
        assert (batch.stats.counters.get("invalidations", 0)
                == ref.stats.counters.get("invalidations", 0))
    assert delivered > 50 and skipped > 0  # the noise was really there
    assert barriers > 0
    assert any(reason == "invalidate" for *_x, reason in ref_log)


# ----------------------------------------------------------------------
# one shared batch per barrier == one table query per participant
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(25))
def test_shared_batch_matches_per_node_queries(seed):
    """Every participant's slice of the shared batch is its own table
    query, record for record, and merging the shared cut is merging the
    clocks of that slice."""
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    peers = [Peer(q, n) for q in range(n)]
    manager = IntervalTable()
    filtered = 0
    for _episode in range(6):
        for _step in range(rng.randint(0, 30)):
            if rng.random() < 0.5:
                rng.choice(peers).seal(rng.sample(range(PAGES), rng.randint(0, 3)))
            else:  # a lock hand-off: dst learns what src knows
                dst, src = rng.sample(peers, 2)
                dst.receive(src.table.records_not_covered_by(dst.vt))
        for peer in peers:  # check-in
            manager.add_all(peer.table.all_records())
        batch = NoticeBatch(manager.all_records(), n)
        assert batch.cut == reduce(VectorClock.merge, [r.vt for r in batch.records],
                                   VectorClock.zero(n))
        for peer in peers:
            lacking = batch.lacking(peer.vt)
            assert lacking == manager.records_not_covered_by(peer.vt)
            filtered += len(batch.records) - len(lacking)
            assert peer.vt.merge(batch.cut) == peer.vt.join([r.vt for r in lacking])
        for peer in peers:  # release: everyone leaves with the same history
            peer.receive(batch.lacking(peer.vt))
            peer.table.prune_covered_by(peer.vt)
        assert len({p.vt for p in peers}) == 1
        manager.prune_covered_by(peers[0].vt)
        assert len(manager) == 0
    assert filtered > 0  # some slice really was a proper subset


# ----------------------------------------------------------------------
# prune_covered_by(vt, incoming) == add_all(incoming) + prune_covered_by(vt)
# ----------------------------------------------------------------------
def unit_record(node, index, width=3):
    vt = [0] * width
    vt[node] = index + 1
    return IntervalRecord(node, index, VectorClock(vt), (index,))


@pytest.mark.parametrize("seed", range(40))
def test_counting_a_release_matches_inserting_then_pruning(seed):
    rng = random.Random(seed)
    counted, inserted = IntervalTable(), IntervalTable()
    floor = [rng.randint(0, 3) for _ in range(3)]
    for table in (counted, inserted):
        assert table.prune_covered_by(VectorClock(floor)) == 0
    # what the node holds at check-in: some of it the release repeats
    # (a lock release reached this manager before the barrier did),
    # some of it stays above the new floor
    held = [unit_record(q, floor[q] + rng.randint(0, 4))
            for q in range(3) for _ in range(rng.randint(0, 3))]
    for table in (counted, inserted):
        table.add_all(held)
    top = [floor[q] + rng.randint(0, 4) for q in range(3)]
    incoming = sorted(
        (unit_record(q, i) for q in range(3) for i in range(floor[q], top[q])
         if rng.random() < 0.8),
        key=lambda r: (r.vt.total, r.node, r.index),
    )
    vt = VectorClock(top)
    added = inserted.add_all(incoming)
    assert counted.prune_covered_by(vt, incoming) == inserted.prune_covered_by(vt)
    assert added <= len(incoming)
    assert len(counted) == len(inserted)
    assert counted._floor == inserted._floor == tuple(top)
    assert counted.all_records() == inserted.all_records()
    # afterwards: a late duplicate below the floor, a repeat, a new record
    late = [unit_record(q, rng.randint(0, top[q] + 2)) for q in range(3)]
    for r in incoming[:2] + late + late:
        assert counted.add(r) == inserted.add(r)
    probe = VectorClock([rng.randint(0, 6) for _ in range(3)])
    assert counted.records_not_covered_by(probe) == inserted.records_not_covered_by(probe)
    assert counted.nbytes == inserted.nbytes


def test_counting_a_release_names_both_corner_cases():
    table = IntervalTable()
    early = unit_record(1, 0)          # arrived with a lock release
    table.add(early)
    release = [unit_record(0, 0), early, unit_record(2, 0)]
    release.sort(key=lambda r: (r.vt.total, r.node, r.index))
    # three records leave the table's history: two counted, one dropped once
    assert table.prune_covered_by(VectorClock((1, 1, 1)), release) == 3
    assert len(table) == 0
    assert not table.add(unit_record(2, 0))  # late duplicate below the floor
    assert table.add(unit_record(2, 1))
