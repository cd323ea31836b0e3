"""Intervals, vector timestamps, and write-invalidation notices.

Lazy release consistency partitions each process's execution into
*intervals* delimited by synchronisation operations.  Ending an interval
produces an :class:`IntervalRecord`: the writer's id, the interval
index, a :class:`VectorClock` timestamp capturing the interval's causal
history, and the list of pages written during the interval (the
*write-invalidation notices*).

Records propagate along the synchronisation chain: a lock grant or
barrier release carries every record the recipient has not yet covered,
and the recipient invalidates its remote copies of the noticed pages.
The same records are what coherence-centric logging writes to stable
storage, and what recovery uses to rebuild the failed node's timeline.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import compress
from operator import attrgetter, ge
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import ProtocolError

__all__ = ["VectorClock", "IntervalRecord", "IntervalTable", "NoticeBatch", "cut_of"]


class VectorClock:
    """An immutable vector timestamp over ``n`` nodes.

    Component ``vt[p]`` counts the completed intervals of node ``p``
    whose effects are covered.  Standard partial order:
    ``a.dominates(b)`` iff ``a[i] >= b[i]`` for every ``i``.

    The public constructor validates its input; ``tick``/``merge``/``join``
    derive clocks from already-validated ones, and the log decoder from
    unsigned words, and build them through :meth:`_trusted`.
    Because clocks are immutable, ``merge`` and ``join`` hand back an
    operand that already is the result instead of a copy.
    """

    __slots__ = ("_v", "_total")

    def __init__(self, values: Iterable[int]):
        v = tuple(int(x) for x in values)
        if any(x < 0 for x in v):
            raise ProtocolError(f"negative vector clock component: {v}")
        self._v: Tuple[int, ...] = v
        self._total: int = sum(v)

    @classmethod
    def _trusted(cls, v: Tuple[int, ...]) -> "VectorClock":
        """Wrap a tuple derived from validated clocks (no re-validation)."""
        self = object.__new__(cls)
        self._v = v
        self._total = sum(v)
        return self

    @classmethod
    def zero(cls, n: int) -> "VectorClock":
        """The origin timestamp for an ``n``-node system."""
        return cls._trusted((0,) * n)

    # ------------------------------------------------------------------
    def tick(self, node: int) -> "VectorClock":
        """A copy with component ``node`` incremented (interval completion)."""
        v = list(self._v)
        v[node] += 1
        return VectorClock._trusted(tuple(v))

    def merge(self, other: "VectorClock") -> "VectorClock":
        """Component-wise maximum (causal join)."""
        a, b = self._v, other._v
        if len(a) != len(b):
            raise _width_mismatch(a, b)
        # most merges meet a clock that already is the result, and the
        # dominance test costs a fifth of building the maximum
        if all(map(ge, a, b)):
            return self
        if all(map(ge, b, a)):
            return other
        return VectorClock._trusted(tuple(map(max, a, b)))

    def join(self, clocks: Iterable["VectorClock"]) -> "VectorClock":
        """Causal join of this clock with a whole batch, in one fold.

        Equal to ``merge`` folded left over ``clocks``; the join is
        associative, commutative and idempotent, so only the *set* of
        clocks matters, never their order or multiplicity.
        """
        a = self._v
        vs = [c._v for c in clocks]
        if not vs:
            return self
        if set(map(len, vs)) != {len(a)}:
            raise _width_mismatch(a, next(v for v in vs if len(v) != len(a)))
        m = tuple(map(max, a, *vs))
        return self if m == a else VectorClock._trusted(m)

    def dominates(self, other: "VectorClock") -> bool:
        """True iff ``self >= other`` component-wise."""
        a, b = self._v, other._v
        if len(a) != len(b):
            raise _width_mismatch(a, b)
        return all(map(ge, a, b))

    def covers_interval(self, node: int, index: int) -> bool:
        """Whether interval ``index`` of ``node`` is within this history."""
        return self._v[node] >= index + 1

    # ------------------------------------------------------------------
    def __getitem__(self, node: int) -> int:
        return self._v[node]

    def __len__(self) -> int:
        return len(self._v)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, VectorClock) and self._v == other._v

    def __hash__(self) -> int:
        return hash(self._v)

    def __repr__(self) -> str:
        return f"VC{self._v}"

    @property
    def total(self) -> int:
        """Sum of components; strictly increases along happens-before."""
        return self._total

    @property
    def nbytes(self) -> int:
        """Encoded size (4 bytes per component)."""
        return 4 * len(self._v)

    def as_tuple(self) -> Tuple[int, ...]:
        """The raw component tuple."""
        return self._v


def _width_mismatch(a: Tuple[int, ...], b: Tuple[int, ...]) -> ProtocolError:
    return ProtocolError(f"vector clock width mismatch: {len(a)} vs {len(b)}")


@dataclass(frozen=True)
class IntervalRecord:
    """One completed interval and its write-invalidation notices."""

    node: int
    index: int
    vt: VectorClock
    #: Pages written during the interval (sorted page ids).
    pages: Tuple[int, ...]
    #: Encoded wire/log size: metadata + vector + 4 bytes per notice.
    #: Derived once at construction -- a record is immutable and is sized
    #: again by every message and log record that carries it.
    nbytes: int = field(init=False, repr=False, compare=False)

    #: Encoded bytes for (node, index, page count) metadata.
    META_BYTES = 12

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "nbytes",
            self.META_BYTES + self.vt.nbytes + 4 * len(self.pages),
        )

    @property
    def key(self) -> Tuple[int, int]:
        """Identity of the interval: ``(node, index)``."""
        return (self.node, self.index)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<IR n{self.node}i{self.index} {self.vt} pages={list(self.pages)}>"


def cut_of(records: Sequence[IntervalRecord], width: int) -> VectorClock:
    """Join of a notice batch's clocks, folded once per batch.

    By *causal closure* -- a clock that covers interval ``(p, i)``
    dominates that interval's own clock, because clocks grow only by
    ``tick`` and by merging clocks that are closed already -- merging
    this into a recipient's clock equals merging in only the clocks of
    the records the recipient had not covered yet.
    """
    return VectorClock.zero(width).join([r.vt for r in records])


class NoticeBatch:
    """One barrier episode's notices: sorted once, joined once, shared.

    ``records`` is everything the manager's table holds once all are in
    (:meth:`IntervalTable.all_records`: it was pruned to the previous
    barrier's cut), in causal order; ``cut`` joins its clocks.
    """

    __slots__ = ("records", "cut", "_writers", "_indices")

    def __init__(self, records: List[IntervalRecord], width: int):
        self.records = records
        self.cut = cut_of(records, width)
        self._writers = [r.node for r in records]
        self._indices = [r.index for r in records]

    def lacking(self, vt: VectorClock) -> List[IntervalRecord]:
        """The batch's records outside ``vt``'s history, in batch order.

        Record for record what ``records_not_covered_by(vt)`` returns on
        the table the batch came from: the same filter of the same
        records, and the sort key is a total order.
        """
        known = map(vt._v.__getitem__, self._writers)
        return list(compress(self.records, map(ge, self._indices, known)))


class IntervalTable:
    """A node's store of every interval record it knows about.

    Supports the two queries the protocol needs: "which records does a
    peer with timestamp ``vt`` lack?" (lock grants, barrier releases)
    and ordered enumeration for recovery reconstruction.

    Storage is per creating node, indexed by interval number -- each
    node's interval indices are dense (0, 1, 2, ...), so the uncovered
    records of node ``q`` for a peer at timestamp ``vt`` are exactly the
    slice ``[vt[q]:]``.  This keeps the hot grant/check-in query
    proportional to its *result* size rather than to the table
    (TreadMarks keeps the same per-node interval lists); long runs would
    otherwise go quadratic in the number of synchronisations.
    """

    def __init__(self) -> None:
        #: node -> records ordered by interval index (possibly with
        #: trailing gaps filled later; lock-chain delivery is causal, so
        #: gaps are transient and only ever at the tail).
        self._by_node: Dict[int, List[Optional[IntervalRecord]]] = {}
        self._count = 0
        #: Join of every clock passed to :meth:`prune_covered_by` (raw
        #: components): slots below it are pruned for good, so each prune
        #: only visits the slots between the old floor and the new one.
        self._floor: Tuple[int, ...] = ()

    def add(self, record: IntervalRecord) -> bool:
        """Insert a record; returns False if it was already known.

        A record below the prune floor counts as known: every node's
        history already covers it, so no grant or check-in can ask for
        it again, and a late duplicate (a lock release overtaken by the
        barrier that pruned its records) must not resurrect it.
        """
        floor = self._floor
        if record.node < len(floor) and record.index < floor[record.node]:
            return False
        lst = self._by_node.setdefault(record.node, [])
        if record.index < len(lst):
            if lst[record.index] is not None:
                return False
            lst[record.index] = record
        else:
            while len(lst) < record.index:
                lst.append(None)
            lst.append(record)
        self._count += 1
        return True

    def add_all(self, records: Iterable[IntervalRecord]) -> int:
        """Insert many records; returns the number newly added."""
        return sum(1 for r in records if self.add(r))

    def get(self, node: int, index: int) -> IntervalRecord:
        """Look up one record (raises if unknown)."""
        lst = self._by_node.get(node, [])
        if index < len(lst) and lst[index] is not None:
            return lst[index]
        raise ProtocolError(f"unknown interval ({node}, {index})")

    def __contains__(self, key: Tuple[int, int]) -> bool:
        node, index = key
        lst = self._by_node.get(node, [])
        return index < len(lst) and lst[index] is not None

    def __len__(self) -> int:
        return self._count

    def records_not_covered_by(self, vt: VectorClock) -> List[IntervalRecord]:
        """Records outside ``vt``'s history, in causal (vt.total) order.

        Sorting by ``(vt.total, node, index)`` yields a linear extension
        of happens-before, so recipients can apply notices in a causally
        safe order.
        """
        have = vt._v
        out: List[IntervalRecord] = []
        for node, lst in self._by_node.items():
            start = have[node] if node < len(have) else 0
            for r in lst[start:]:
                if r is not None:
                    out.append(r)
        out.sort(key=_causal_key)
        return out

    def all_records(self) -> List[IntervalRecord]:
        """Every known record in causal order."""
        out = [r for lst in self._by_node.values() for r in lst if r is not None]
        out.sort(key=_causal_key)
        return out

    def prune_covered_by(
        self, vt: VectorClock, incoming: Sequence[IntervalRecord] = ()
    ) -> int:
        """Drop records covered by ``vt``; returns the number dropped.

        Safe after a barrier: every node's applied timestamp then
        dominates the barrier cut, so no future grant or check-in can
        need those records (the slice positions are preserved -- pruned
        entries become ``None``, keeping interval indices stable).
        Recovery never consults interval tables (it replays notices from
        the log), so pruning does not affect recoverability.

        Everything below the floor left by earlier prunes is already
        gone (``add`` keeps it that way), so only the slots the floor
        moves over are visited -- a barrier costs its new records, not
        the run so far.

        ``incoming`` is the barrier's notice batch: causally sorted
        records above the old floor that ``vt`` covers.  Table and count
        come out as if they had been ``add``-ed first; they would all be
        dropped again here, so they are only counted -- except those
        already held (a lock release that reached this manager before
        the barrier did), which are dropped once.
        """
        old = self._floor
        new = vt._v
        if old:
            if len(old) != len(new):
                raise _width_mismatch(old, new)
            if not all(map(ge, new, old)):  # a node's clock only grows
                new = tuple(map(max, old, new))
        self._floor = new
        dropped = known = 0
        for node, lst in self._by_node.items():
            if node >= len(new):
                continue
            for i in range(old[node] if old else 0, min(new[node], len(lst))):
                r = lst[i]
                if r is not None:
                    lst[i] = None
                    dropped += 1
                    k = _causal_key(r)
                    at = bisect_left(incoming, k, key=_causal_key)
                    known += at < len(incoming) and _causal_key(incoming[at]) == k
        self._count -= dropped
        return dropped + len(incoming) - known

    @property
    def nbytes(self) -> int:
        """Encoded size of all retained records (memory-growth stat)."""
        return sum(
            r.nbytes
            for lst in self._by_node.values()
            for r in lst
            if r is not None
        )


#: Sort key of every notice batch, read without a Python frame; its
#: order is a linear extension of happens-before (``vt.total`` strictly
#: increases along it).
_causal_key = attrgetter("vt._total", "node", "index")
