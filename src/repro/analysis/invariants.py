"""Trace-driven protocol invariant checker.

Consumes the structured events a :class:`~repro.sim.trace.Tracer`
records (see :class:`~repro.sim.trace.Ev`) and validates the HLRC
invariants the paper's correctness argument rests on:

* **vt-monotonic** -- a node's applied vector timestamp only grows
  along its own execution (Section 2: interval timestamps capture a
  monotonically growing causal history).
* **vt-causal-closure** -- a timestamp that covers interval ``(p, i)``
  dominates the timestamp that interval was sealed with: clocks grow
  only by sealing and by merging clocks that are closed already.  The
  protocol merges one joined clock per notice batch on the strength of
  this (:func:`repro.dsm.interval.cut_of`).
* **lock-hb** -- the timestamp a node holds after acquiring a lock
  dominates the timestamp the previous holder had when it released it
  (write notices travel the lock chain, Section 2).
* **barrier-hb** -- the timestamp a node leaves a barrier with
  dominates every participant's check-in timestamp (the barrier release
  carries every record the node lacks, Section 2).
* **page-state** -- page-table transitions follow the
  INVALID/CLEAN/DIRTY protection automaton of
  :mod:`repro.memory.page`, and a home copy never changes state on its
  home node (home copies are permanently valid, Section 2).
* **diff-ack-order** -- at a release/barrier the diffs of the closing
  interval are sent to their homes and *acknowledged* before the
  interval is sealed (Figure 2: the releaser waits for all diff ACKs),
  and every diff applied at a home was actually sent by its writer.
* **serve-fetch** -- the bytes installed by a page fault are exactly
  the bytes some home served for that page (content integrity of the
  fetch path, checked by CRC).
* **data-race** -- word-granularity write sets of *concurrent*
  intervals (vector timestamps incomparable) never overlap; HLRC
  merges concurrent diffs at the home assuming data-race-free programs
  touch disjoint words (Section 2), so an overlap is an application
  data race the protocol would silently resolve arbitrarily.

``check_trace`` runs all of them over a trace and returns an
:class:`InvariantReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..errors import InvariantViolationError
from ..memory.page import PageState
from ..sim.trace import Ev, TraceEvent, Tracer

__all__ = [
    "Violation",
    "InvariantReport",
    "InvariantChecker",
    "RaceDetector",
    "check_trace",
]

#: Legal page-table transitions ``(from, to)`` (states by value string).
LEGAL_TRANSITIONS = frozenset(
    {
        (PageState.INVALID.value, PageState.CLEAN.value),   # fetch / fill
        (PageState.CLEAN.value, PageState.DIRTY.value),     # first write
        (PageState.DIRTY.value, PageState.CLEAN.value),     # seal (diffed)
        (PageState.CLEAN.value, PageState.INVALID.value),   # invalidate
        (PageState.DIRTY.value, PageState.INVALID.value),   # invalidate (early-diffed)
    }
)


@dataclass(frozen=True)
class Violation:
    """One broken invariant, anchored to the event that exposed it."""

    rule: str
    time: float
    node: int
    message: str

    def __str__(self) -> str:
        return f"[{self.rule}] t={self.time:.6f} node {self.node}: {self.message}"


@dataclass
class InvariantReport:
    """Outcome of one invariant-checking pass."""

    violations: List[Violation] = field(default_factory=list)
    events_checked: int = 0
    intervals_seen: int = 0
    races_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_failed(self) -> None:
        """Raise :class:`InvariantViolationError` listing every violation."""
        if self.violations:
            lines = "\n".join(str(v) for v in self.violations)
            raise InvariantViolationError(
                f"{len(self.violations)} protocol invariant violation(s):\n{lines}"
            )

    def by_rule(self, rule: str) -> List[Violation]:
        return [v for v in self.violations if v.rule == rule]


def _dominates(a: Tuple[int, ...], b: Tuple[int, ...]) -> bool:
    return len(a) == len(b) and all(x >= y for x, y in zip(a, b))


@dataclass(frozen=True)
class _WriteSet:
    """Word-granularity writes of one (node, flush) with its timestamp."""

    node: int
    vt: Tuple[int, ...]
    page: int
    #: Half-open word-offset ranges ``(start, end)``.
    ranges: Tuple[Tuple[int, int], ...]
    label: str


class RaceDetector:
    """Flags overlapping same-page writes by concurrent intervals.

    Fed the word-run payloads of ``interval_end`` and ``early_diff``
    events; two write sets race when they come from different nodes,
    their vector timestamps are incomparable (neither dominates), and
    their word ranges on one page intersect.
    """

    def __init__(self) -> None:
        self._by_page: Dict[int, List[_WriteSet]] = {}
        self.pairs_checked = 0

    def add(
        self,
        node: int,
        vt: Tuple[int, ...],
        page: int,
        runs: Iterable[Iterable[int]],
        label: str,
    ) -> None:
        # a live trace carries the diff's run table itself, not lists
        tolist = getattr(runs, "tolist", None)
        if tolist is not None:
            runs = tolist()
        ranges = tuple((int(off), int(off) + int(n)) for off, n in runs)
        if ranges:
            self._by_page.setdefault(page, []).append(
                _WriteSet(node, vt, page, ranges, label)
            )

    @staticmethod
    def _overlap(a: _WriteSet, b: _WriteSet) -> Optional[Tuple[int, int]]:
        for s1, e1 in a.ranges:
            for s2, e2 in b.ranges:
                lo, hi = max(s1, s2), min(e1, e2)
                if lo < hi:
                    return lo, hi
        return None

    def finish(self) -> List[Violation]:
        out: List[Violation] = []
        for page, sets in self._by_page.items():
            for i, a in enumerate(sets):
                for b in sets[i + 1 :]:
                    if a.node == b.node:
                        continue
                    self.pairs_checked += 1
                    if _dominates(a.vt, b.vt) or _dominates(b.vt, a.vt):
                        continue  # causally ordered: not a race
                    hit = self._overlap(a, b)
                    if hit is not None:
                        out.append(
                            Violation(
                                "data-race",
                                0.0,
                                a.node,
                                f"page {page} words [{hit[0]}, {hit[1]}) written "
                                f"by concurrent intervals {a.label} (node {a.node}, "
                                f"vt={list(a.vt)}) and {b.label} (node {b.node}, "
                                f"vt={list(b.vt)})",
                            )
                        )
        return out


class InvariantChecker:
    """Streaming checker: feed events in trace (simulated-time) order."""

    def __init__(self) -> None:
        self.report = InvariantReport()
        self.races = RaceDetector()
        #: node -> last own-vt seen (monotonicity).
        self._last_vt: Dict[int, Tuple[int, ...]] = {}
        #: lock -> vt at its most recent release.
        self._release_vt: Dict[int, Tuple[int, ...]] = {}
        #: (node, interval) -> the vt that interval was sealed with.
        self._sealed_vt: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        #: episode -> [(node, vt)] check-ins (from the manager's events).
        self._checkins: Dict[int, List[Tuple[int, Tuple[int, ...]]]] = {}
        #: episode -> join of its check-in vts, what every exit must
        #: dominate (None once widths disagree: only a corrupt trace).
        self._checkin_join: Dict[int, Optional[Tuple[int, ...]]] = {}
        #: node -> {(index, part): set of homes} outstanding diff sends.
        self._sends: Dict[int, Dict[Tuple[int, int], Set[int]]] = {}
        #: node -> {(index, part)} acknowledged flushes.
        self._acked: Dict[int, Set[Tuple[int, int]]] = {}
        #: (page, requester) -> FIFO of served CRCs.
        self._served: Dict[Tuple[int, int], List[int]] = {}

    # ------------------------------------------------------------------
    def _flag(self, rule: str, ev: TraceEvent, message: str) -> None:
        self.report.violations.append(Violation(rule, ev.time, ev.node, message))

    def feed(self, ev: TraceEvent) -> None:
        self.report.events_checked += 1
        e, d = ev.event, ev.detail
        if e in Ev.OWN_VT_EVENTS:
            vt = tuple(d["vt"])
            if e == Ev.INTERVAL_END:
                self._sealed_vt[(ev.node, d["interval"])] = vt
            self._check_causal_closure(ev, vt)
            self._check_monotonic(ev, vt)
        if e == Ev.LOCK_ACQUIRED:
            self._check_lock_hb(ev, d["lock"], tuple(d["vt"]))
        elif e == Ev.LOCK_RELEASED:
            self._release_vt[d["lock"]] = tuple(d["vt"])
        elif e == Ev.BARRIER_CHECKIN:
            cvt = tuple(d["vt"])
            self._checkins.setdefault(d["episode"], []).append((d["node"], cvt))
            join = self._checkin_join.get(d["episode"], cvt)
            if join is not None:
                join = tuple(map(max, join, cvt)) if len(join) == len(cvt) else None
            self._checkin_join[d["episode"]] = join
        elif e == Ev.BARRIER_EXIT:
            self._check_barrier_hb(ev, d["episode"], tuple(d["vt"]))
        elif e == Ev.PAGE_STATE:
            self._check_page_state(ev, d)
        elif e == Ev.DIFF_SEND:
            self._sends.setdefault(ev.node, {}).setdefault(
                (d["index"], d["part"]), set()
            ).add(d["home"])
        elif e == Ev.DIFF_ACKED:
            self._check_diff_acked(ev, d)
        elif e == Ev.DIFF_APPLY:
            self._check_diff_apply(ev, d)
        elif e == Ev.INTERVAL_END:
            self._check_interval_end(ev, d)
        elif e == Ev.EARLY_DIFF:
            self.races.add(
                ev.node,
                tuple(d["vt"]),
                d["page"],
                d["runs"],
                f"early part {d['part']}",
            )
        elif e == Ev.PAGE_SERVE:
            self._served.setdefault((d["page"], d["to"]), []).append(d["crc"])
        elif e == Ev.PAGE_FETCH:
            self._check_page_fetch(ev, d)

    # ------------------------------------------------------------------
    def _check_monotonic(self, ev: TraceEvent, vt: Tuple[int, ...]) -> None:
        last = self._last_vt.get(ev.node)
        if last is not None and not _dominates(vt, last):
            self._flag(
                "vt-monotonic",
                ev,
                f"{ev.event} vt {list(vt)} does not dominate the node's "
                f"previous vt {list(last)}",
            )
        self._last_vt[ev.node] = vt

    def _check_causal_closure(self, ev: TraceEvent, vt: Tuple[int, ...]) -> None:
        """Each component that moved must bring its interval's history.

        Components that stood still were checked when they moved (and
        ``vt-monotonic`` guards the rest), so an event costs the
        intervals it newly covers, not the cluster width.
        """
        last = self._last_vt.get(ev.node, ())
        moved = [
            (q, sealed)
            for q, covered in enumerate(vt)
            if covered and (q >= len(last) or covered > last[q])
            and (sealed := self._sealed_vt.get((q, covered - 1))) is not None
        ]
        if not moved or _dominates(vt, tuple(map(max, *(s for _q, s in moved), vt))):
            return
        for q, sealed in moved:
            if not _dominates(vt, sealed):
                self._flag(
                    "vt-causal-closure",
                    ev,
                    f"{ev.event} vt {list(vt)} covers interval {vt[q] - 1} of "
                    f"node {q} but not the vt {list(sealed)} it was sealed "
                    "with: a clock advanced past a record without its history",
                )

    def _check_lock_hb(self, ev: TraceEvent, lock: int, vt: Tuple[int, ...]) -> None:
        rel = self._release_vt.get(lock)
        if rel is not None and not _dominates(vt, rel):
            self._flag(
                "lock-hb",
                ev,
                f"acquired lock {lock} with vt {list(vt)} not dominating the "
                f"previous release's vt {list(rel)}: write notices were lost "
                "on the lock chain",
            )

    def _check_barrier_hb(self, ev: TraceEvent, episode: int, vt: Tuple[int, ...]) -> None:
        join = self._checkin_join.get(episode, vt)
        if join is not None and _dominates(vt, join):
            return  # dominates the join, so every check-in; name one only on failure
        for node, cvt in self._checkins.get(episode, []):
            if not _dominates(vt, cvt):
                self._flag(
                    "barrier-hb",
                    ev,
                    f"left barrier episode {episode} with vt {list(vt)} not "
                    f"dominating node {node}'s check-in vt {list(cvt)}",
                )

    def _check_page_state(self, ev: TraceEvent, d: dict) -> None:
        if d["home"] == ev.node:
            self._flag(
                "page-state",
                ev,
                f"home page {d['page']} changed state {d['from']} -> {d['to']} "
                f"({d['reason']}) on its home node: home copies are "
                "permanently valid",
            )
        if (d["from"], d["to"]) not in LEGAL_TRANSITIONS:
            self._flag(
                "page-state",
                ev,
                f"illegal transition {d['from']} -> {d['to']} "
                f"({d['reason']}) for page {d['page']}",
            )

    def _check_diff_acked(self, ev: TraceEvent, d: dict) -> None:
        key = (d["index"], d["part"])
        sent = self._sends.get(ev.node, {}).get(key)
        if sent is None:
            self._flag(
                "diff-ack-order",
                ev,
                f"interval {key[0]} part {key[1]} acknowledged but no diff "
                "was ever sent",
            )
        elif set(d["homes"]) != sent:
            self._flag(
                "diff-ack-order",
                ev,
                f"interval {key[0]} part {key[1]} acknowledged by homes "
                f"{sorted(d['homes'])} but sent to {sorted(sent)}",
            )
        self._acked.setdefault(ev.node, set()).add(key)

    def _check_diff_apply(self, ev: TraceEvent, d: dict) -> None:
        key = (d["index"], d["part"])
        sent = self._sends.get(d["writer"], {}).get(key)
        if sent is None or ev.node not in sent:
            self._flag(
                "diff-ack-order",
                ev,
                f"applied a diff batch from writer {d['writer']} interval "
                f"{key[0]} part {key[1]} that the writer never sent here",
            )

    def _check_interval_end(self, ev: TraceEvent, d: dict) -> None:
        self.report.intervals_seen += 1
        key = (d["interval"], 0)
        sent = self._sends.get(ev.node, {}).get(key)
        if sent and key not in self._acked.get(ev.node, set()):
            self._flag(
                "diff-ack-order",
                ev,
                f"interval {d['interval']} sealed before its diffs to homes "
                f"{sorted(sent)} were acknowledged",
            )
        vt = tuple(d["vt"])
        for w in d["writes"]:
            self.races.add(ev.node, vt, w["page"], w["runs"], f"interval {d['interval']}")

    def _check_page_fetch(self, ev: TraceEvent, d: dict) -> None:
        fifo = self._served.get((d["page"], ev.node))
        if not fifo:
            self._flag(
                "serve-fetch",
                ev,
                f"installed page {d['page']} without any matching serve "
                "from its home",
            )
            return
        crc = fifo.pop(0)
        if crc != d["crc"]:
            self._flag(
                "serve-fetch",
                ev,
                f"page {d['page']} content CRC {d['crc']:#010x} differs from "
                f"the served CRC {crc:#010x}: bytes were corrupted in flight",
            )

    # ------------------------------------------------------------------
    def finish(self) -> InvariantReport:
        """Run the cross-event checks and return the report."""
        race_violations = self.races.finish()
        self.report.races_checked = self.races.pairs_checked
        self.report.violations.extend(race_violations)
        return self.report


def check_trace(trace) -> InvariantReport:
    """Check a whole trace: a :class:`Tracer` or an event iterable."""
    events = trace.events if isinstance(trace, Tracer) else trace
    checker = InvariantChecker()
    for ev in events:
        checker.feed(ev)
    return checker.finish()
