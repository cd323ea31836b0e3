"""Recoverability auditor: prove the logs can replay any crash.

The paper's central claim (Section 3.2) is that CCL's minimal log --
own diffs, write-invalidation notices, 12-byte update-event records and
fetch *metadata* -- is always sufficient for a recovering node to
reconstruct every page version its replay faults on.  This module
machine-checks that claim after a failure-free run, with no crash
needed: for a crash at any time T, the recovering node's replay faults
on exactly the page versions its fetch records name (recovery replays
the failure-free schedule, so the fetch set over the whole run covers
every crash point).  The auditor therefore:

1. **Structurally** verifies the log cross-references: every update
   event a home logged points at a diff its writer actually logged
   (:class:`~repro.core.logrecords.UpdateEventLogRecord` ``(writer,
   interval, part, page)`` must resolve via the writer's
   ``find_own_diff``), and the notices inside each
   :class:`~repro.core.logrecords.NoticeLogRecord` are stored in causal
   (vt-total) order, the order replay applies them in.
2. **Reconstructs** every fetched page version symbolically: starting
   from the pristine initial image (the checkpoint every node holds at
   interval zero), it applies -- in the same causal order recovery uses
   (:meth:`ReplayNode.causal_sort`) -- every logged diff of that page
   whose timestamp the fetched version covers and that existed when the
   fetch happened -- the fetcher's own end-of-interval diffs of the
   bundle it fetched in are sealed later, even when their clock equals
   the fetched version -- and compares the result, by CRC, against the
   bytes the fetcher actually installed (recorded by the tracer's
   ``page_fetch`` events).  The first version that
   cannot be rebuilt bit-exactly is reported as a hard error naming the
   page and version.

Under ML the content check instead verifies that each logged page copy
(:class:`~repro.core.logrecords.PageCopyLogRecord`) matches the traced
fetch bytes -- ML logs contents verbatim, so recoverability there is
storage fidelity, not derivability.

The audit dispatches on the nodes' :class:`~repro.dsm.logginghooks.LogPolicy`:
the ML content check when it logs ``contents``, the reconstruction when
it logs the ``skeleton`` with ``home_diffs`` (the repo's sound default,
the only configuration that makes *every* version derivable); other
policies are audited structurally only.  Logs that mix policies
(adaptive), and own diffs flushed only at sync entry (ablation A1), are
skipped.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.logrecords import (
    FetchLogRecord,
    ModeSwitchLogRecord,
    NoticeLogRecord,
    OwnDiffLogRecord,
    PageCopyLogRecord,
    UpdateEventLogRecord,
)
from ..errors import LoggingProtocolError, RecoverabilityError
from ..memory.diff import Diff, apply_diff
from ..sim.trace import Ev, Tracer

__all__ = ["Problem", "RecoverabilityReport", "audit_recoverability"]


@dataclass(frozen=True)
class Problem:
    """One unrecoverable or inconsistent log finding."""

    kind: str
    node: int
    page: int
    version: Optional[Tuple[int, ...]]
    message: str

    def __str__(self) -> str:
        v = list(self.version) if self.version is not None else "?"
        return f"[{self.kind}] node {self.node} page {self.page} version {v}: {self.message}"


@dataclass
class RecoverabilityReport:
    """Outcome of one audit pass."""

    protocol: str
    problems: List[Problem] = field(default_factory=list)
    fetches_checked: int = 0
    events_checked: int = 0
    notice_records_checked: int = 0
    content_checked: bool = False
    skipped_reason: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def first_unreachable(self) -> Optional[Problem]:
        """The first page version proven unrecoverable, if any."""
        return self.problems[0] if self.problems else None

    def raise_if_failed(self) -> None:
        """Raise :class:`RecoverabilityError` on the first hard error."""
        if self.problems:
            lines = "\n".join(str(p) for p in self.problems)
            raise RecoverabilityError(
                f"{len(self.problems)} unrecoverable finding(s):\n{lines}"
            )


def _node_log(node: Any) -> Optional[Any]:
    return getattr(node.hooks, "log", None)


def _fetched_crcs(
    tracer: Optional[Tracer],
) -> Dict[Tuple[int, int], List[Tuple[Tuple[int, ...], int]]]:
    """(fetcher, page) -> [(version, installed-content CRC), ...] in fetch order.

    Keyed FIFO, not a flat map: the same page can be fetched repeatedly
    at the same version with *different* bytes (a home legally serves
    its in-progress writes, which bump no version until sealed), so
    trace events must be matched to log records positionally.  Both the
    trace and each node's log are chronological, so the k-th fetch
    record of a page is the k-th fetch event of that page.
    """
    out: Dict[Tuple[int, int], List[Tuple[Tuple[int, ...], int]]] = {}
    if tracer is None:
        return out
    for ev in tracer.filter(Ev.PAGE_FETCH):
        d = ev.detail
        if d.get("version") is None:
            continue
        out.setdefault((ev.node, d["page"]), []).append(
            (tuple(d["version"]), d["crc"])
        )
    return out


def audit_recoverability(system, tracer: Optional[Tracer] = None) -> RecoverabilityReport:
    """Audit a finished run's logs; see the module docstring.

    ``system`` is the :class:`~repro.dsm.system.DsmSystem` that ran;
    ``tracer`` defaults to ``system.tracer``.  Volatile (not yet
    flushed) records are audited too: survivors' logs do not lose them.
    """
    if tracer is None:
        tracer = system.tracer
    names = {n.hooks.name for n in system.nodes}
    protocol = names.pop() if len(names) == 1 else "mixed"
    report = RecoverabilityReport(protocol=protocol)

    logs = {n.id: _node_log(n) for n in system.nodes}
    if any(log is None for log in logs.values()):
        report.skipped_reason = f"no recovery log under protocol {protocol!r}"
        return report
    policies = {n.hooks.policy for n in system.nodes}
    if len(policies) > 1 or any(isinstance(r, ModeSwitchLogRecord)
                                for log in logs.values()
                                for r in log.all_records):
        report.skipped_reason = (
            "the logs mix logging policies (adaptive switches per interval); "
            "the audit reads one policy's records"
        )
        return report
    policy = policies.pop()
    if policy.skeleton and not policy.seal_flush:
        report.skipped_reason = (
            "own diffs flush at the next sync entry, so the last seal's "
            "never become durable (the A1 ablation is failure-free only)"
        )
        return report

    # ------------------------------------------------------------------
    # structural pass: cross-references and causal ordering
    # ------------------------------------------------------------------
    for node in system.nodes:
        for rec in logs[node.id].all_records:
            if isinstance(rec, NoticeLogRecord):
                report.notice_records_checked += 1
                totals = [r.vt.total for r in rec.records]
                if totals != sorted(totals):
                    report.problems.append(
                        Problem(
                            "notice-order",
                            node.id,
                            -1,
                            None,
                            f"notices of bundle {rec.interval} window "
                            f"{rec.window} are not in causal (vt-total) "
                            f"order: {totals}; replay would apply "
                            "invalidations out of happens-before order",
                        )
                    )
            elif isinstance(rec, UpdateEventLogRecord):
                for page in rec.pages:
                    report.events_checked += 1
                    try:
                        logs[rec.writer].find_own_diff(
                            page, rec.writer_index, rec.part
                        )
                    except LoggingProtocolError:
                        report.problems.append(
                            Problem(
                                "missing-diff",
                                node.id,
                                page,
                                None,
                                f"update event references writer {rec.writer} "
                                f"interval {rec.writer_index} part {rec.part}, "
                                "but the writer's log holds no such diff: the "
                                "home copy of this page is not reconstructible "
                                "past this event",
                            )
                        )

    # ------------------------------------------------------------------
    # content pass: rebuild every fetched version from base + diffs
    # ------------------------------------------------------------------
    crcs = _fetched_crcs(tracer)

    if policy.contents:
        cursors: Dict[Tuple[int, int], int] = {}
        for node in system.nodes:
            for rec in logs[node.id].all_records:
                if not isinstance(rec, PageCopyLogRecord):
                    continue
                if rec.contents is None or rec.version is None:
                    continue
                key = (node.id, rec.page)
                fifo = crcs.get(key, [])
                k = cursors.get(key, 0)
                cursors[key] = k + 1
                if k >= len(fifo):
                    continue  # tracer missed this fetch (enabled late / maxlen)
                version, traced = fifo[k]
                if version != rec.version.as_tuple():
                    continue
                report.fetches_checked += 1
                got = zlib.crc32(rec.contents)
                if got != traced:
                    report.problems.append(
                        Problem(
                            "content-mismatch",
                            node.id,
                            rec.page,
                            rec.version.as_tuple(),
                            "logged page copy differs from the bytes the "
                            "fetch installed: replay would feed the node "
                            "corrupt data",
                        )
                    )
        report.content_checked = bool(crcs)
        return report

    # CCL: only the home-write-diff configuration makes home writes
    # observable in the logs, so only then is every version derivable.
    if not policy.home_diffs:
        report.skipped_reason = (
            "content reconstruction needs home_diffs (paper mode falls "
            "back to home rollback, which the audit cannot model)"
        )
        return report

    # index every logged diff once: page -> [(diff, writer, index, part,
    # vt, bundle)]; the writer's bundle locates its end-of-interval parts
    by_page: Dict[int, List[Tuple[Diff, int, int, int, object, int]]] = {}
    for node in system.nodes:
        for rec in logs[node.id].all_records:
            if not isinstance(rec, OwnDiffLogRecord):
                continue
            for d in (*rec.diffs, *rec.home_diffs):
                by_page.setdefault(d.page, []).append(
                    (d, node.id, rec.vt_index, 0, rec.vt, rec.interval)
                )
            for part, d, evt in rec.early:
                by_page.setdefault(d.page, []).append(
                    (d, node.id, rec.vt_index, part, evt, rec.interval)
                )

    pristine = system.space.initial_image().reshape(-1, system.space.page_size)

    from ..core.recovery import ReplayNode

    cursors: Dict[Tuple[int, int], int] = {}
    for node in system.nodes:
        for rec in logs[node.id].all_records:
            if not isinstance(rec, FetchLogRecord):
                continue
            if rec.version is None:
                continue
            version = rec.version
            key = (node.id, rec.page)
            fifo = crcs.get(key, [])
            k = cursors.get(key, 0)
            cursors[key] = k + 1
            if k >= len(fifo):
                continue  # tracer missed this fetch; structural only
            traced_version, traced = fifo[k]
            if traced_version != version.as_tuple():
                continue
            report.fetches_checked += 1
            frame = pristine[rec.page].copy()
            # the fetch constraint: version V holds the diffs V covers that
            # existed at the fetch.  The fetcher's own end-of-interval
            # diffs of the bundle it fetched in are sealed after the fetch,
            # though their clock may equal V (an early diff of that bundle
            # carried the same tick to the home), so they are not in it
            entries = [
                e[:5] for e in by_page.get(rec.page, ())
                if version.dominates(e[4])
                and not (e[1] == node.id and e[3] == 0 and e[5] == rec.interval)
            ]
            for d, _w, _i, _p, _vt in ReplayNode.causal_sort(entries):
                apply_diff(d, frame)
            rebuilt = zlib.crc32(frame)
            report.content_checked = True
            if rebuilt != traced:
                report.problems.append(
                    Problem(
                        "unreachable-version",
                        node.id,
                        rec.page,
                        version.as_tuple(),
                        "version cannot be rebuilt from the initial image "
                        "plus logged diffs (rebuilt CRC "
                        f"{rebuilt:#010x} != fetched CRC {traced:#010x}): a "
                        "crash-at-fetch replay would fault on a page no "
                        "survivor can serve",
                    )
                )
    return report
