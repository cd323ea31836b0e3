"""Statistics collection for simulated nodes.

The evaluation section of the paper reports execution time, log sizes,
flush counts, and recovery time.  To regenerate those tables the DSM
layer records, per node, both event *counters* (:class:`Counter`) and a
*time breakdown* (:class:`TimeBreakdown`) attributing virtual seconds of
the node's critical path to categories such as compute, page-fault
stalls, synchronisation waits, and log-flush stalls.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Mapping

from ..obs.latency import LatencyRecorder

__all__ = ["Counter", "TimeBreakdown", "NodeStats"]


class Counter(Dict[str, float]):
    """A string-keyed tally with a convenience ``add`` and merge."""

    def add(self, key: str, amount: float = 1) -> None:
        """Increment ``key`` by ``amount`` (creating it at zero)."""
        self[key] = self.get(key, 0) + amount

    def merge(self, other: Mapping[str, float]) -> "Counter":
        """Accumulate another counter into this one; returns self."""
        for k, v in other.items():
            self.add(k, v)
        return self


class TimeBreakdown:
    """Attribution of a node's virtual time to named categories.

    Categories are open-ended strings; the harness groups on the
    conventional ones:

    * ``compute`` -- application floating-point work
    * ``fault`` -- page-fault stalls (fetch round trips)
    * ``sync`` -- waiting at locks and barriers
    * ``diff`` -- diff creation/application CPU
    * ``log_flush`` -- stable-storage flush time on the critical path
    * ``log_read`` -- reading logged data during recovery
    * ``prefetch`` -- recovery prefetch round trips
    """

    def __init__(self) -> None:
        self._buckets: Counter = Counter()

    def add(self, category: str, seconds: float) -> None:
        """Charge ``seconds`` of critical-path time to ``category``."""
        self._buckets.add(category, seconds)

    def get(self, category: str) -> float:
        """Seconds charged to ``category`` so far (0 if never charged)."""
        return self._buckets.get(category, 0.0)

    @property
    def total(self) -> float:
        """Sum over all categories."""
        return sum(self._buckets.values())

    def as_dict(self) -> Dict[str, float]:
        """A plain-dict copy for reporting."""
        return dict(self._buckets)

    def merge(self, other: "TimeBreakdown") -> "TimeBreakdown":
        """Accumulate another breakdown into this one; returns self."""
        self._buckets.merge(other._buckets)
        return self

    def __iter__(self) -> Iterator[str]:
        return iter(self._buckets)


class NodeStats:
    """All measurements for one simulated node.

    Combines event counters (``page_faults``, ``diffs_created``,
    ``diff_bytes_sent``, ``log_flushes`` ...) with a
    :class:`TimeBreakdown`.  The harness aggregates these across nodes
    when rendering the paper's tables.
    """

    def __init__(self, node_id: int):
        self.node_id = node_id
        self.counters = Counter()
        self.time = TimeBreakdown()
        #: Per-operation streaming latency histograms (virtual seconds);
        #: always on -- recording costs no virtual time.
        self.latency: Dict[str, LatencyRecorder] = {}

    def count(self, key: str, amount: float = 1) -> None:
        """Shorthand for ``self.counters.add``."""
        self.counters.add(key, amount)

    def charge(self, category: str, seconds: float) -> None:
        """Shorthand for ``self.time.add``."""
        self.time.add(category, seconds)

    @contextmanager
    def bracket(self, clock: Any, category: str) -> Iterator[None]:
        """Charge the virtual time a ``with`` block spans to ``category``.

        ``clock`` is anything with a ``now`` (the simulator); the block
        may yield to it.  A block left by an exception -- a killed
        process included -- charges nothing.
        """
        t0 = clock.now
        yield
        self.time.add(category, clock.now - t0)

    def recorder(self, op: str) -> LatencyRecorder:
        """The (lazily created) latency recorder for one operation."""
        rec = self.latency.get(op)
        if rec is None:
            rec = self.latency[op] = LatencyRecorder()
        return rec

    def observe(self, op: str, seconds: float) -> None:
        """Record one operation latency (virtual seconds)."""
        rec = self.latency.get(op)
        if rec is None:
            rec = self.latency[op] = LatencyRecorder()
        rec.observe(seconds)

    def as_dict(self) -> Dict[str, object]:
        """A JSON-friendly snapshot."""
        return {
            "node": self.node_id,
            "counters": dict(self.counters),
            "time": self.time.as_dict(),
            "latency": {op: rec.percentiles()
                        for op, rec in sorted(self.latency.items())},
        }

    @staticmethod
    def aggregate(stats: List["NodeStats"]) -> "NodeStats":
        """Element-wise sum across nodes (node_id = -1).

        Latency histograms merge bucket-wise, so cluster percentiles
        come from the true union of per-node observations.
        """
        out = NodeStats(-1)
        for s in stats:
            out.counters.merge(s.counters)
            out.time.merge(s.time)
            for op, rec in s.latency.items():
                out.recorder(op).merge(rec)
        return out
