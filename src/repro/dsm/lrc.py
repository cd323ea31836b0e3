"""Homeless lazy release consistency (TreadMarks-style).

The protocol the paper's related work (Section 5) contrasts against:
no page has a home.  Writers keep the diffs they create in a local
**diff repository**; a fault gathers, from each writer, the diffs of
every interval that wrote the page and is not yet reflected in the
local copy, and applies them in causal order.  Consequences the paper
highlights (Section 1):

* a fault costs **one round trip per writer** with relevant diffs,
  versus home-based HLRC's single round trip to the home;
* diffs must be retained indefinitely (until a garbage-collection
  epoch), versus HLRC discarding a diff as soon as the home applied it
  -- the repository's growth is tracked in ``diff_repo_bytes``;
* there is no always-valid copy, so even a page's original writer may
  need remote diffs after an invalidation.

This implementation derives every fill from the node's *own frame*:
each frame holds the page at some version (the replicated initial image
at version zero), so a fill never transfers a page image -- only the
diffs of the uncovered intervals, requested per writer in one batch.
Pure-diff filling is the textbook protocol; production TreadMarks adds
a whole-page fast path for long histories.

Used for the home-based vs homeless comparison bench; crash recovery
for homeless LRC is prior work ([11] in the paper) and out of scope, so
only the ``none`` logging protocol is supported here.

:class:`LrcNode` reuses HLRC's synchronisation machinery (locks,
barriers, interval records, vector clocks) by subclassing
:class:`~repro.dsm.hlrc.HlrcNode` and replacing the page-data paths.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Tuple

from ..errors import ProtocolError
from ..memory import PageState, create_diff
from ..memory.diff import Diff, apply_diff

from ..sim.network import NetMessage
from .hlrc import HlrcNode
from .interval import IntervalRecord, VectorClock
from .messages import MSG_FIXED_BYTES

__all__ = ["LrcNode", "LrcDiffRequest", "LrcDiffReply"]


class LrcDiffRequest:
    """Fetch of stored diffs: ``wants`` is ``[(page, interval_index)]``."""

    def __init__(self, reqid: int, requester: int,
                 wants: List[Tuple[int, int]]):
        self.reqid = reqid
        self.requester = requester
        self.wants = list(wants)

    @property
    def nbytes(self) -> int:
        return MSG_FIXED_BYTES + 8 * len(self.wants)


class LrcDiffReply:
    """Stored diffs: ``entries`` is ``[(diff, writer, index, part, vt)]``."""

    def __init__(self, reqid: int, entries):
        self.reqid = reqid
        self.entries = list(entries)

    @property
    def nbytes(self) -> int:
        return MSG_FIXED_BYTES + sum(
            d.nbytes + 12 + vt.nbytes for d, _w, _i, _p, vt in self.entries
        )


class LrcNode(HlrcNode):
    """One cluster node running homeless (TreadMarks-style) LRC."""

    SERVER_KINDS = (
        HlrcNode.SERVER_KINDS
        - {"page_req", "diff", "page_reply", "diff_ack"}
    ) | {"lrc_diff_req", "lrc_diff_reply"}

    def __init__(self, system, node_id, hooks=None):
        super().__init__(system, node_id, hooks)
        if self.hooks.name != "none":
            raise ProtocolError(
                "homeless LRC supports only the 'none' logging protocol "
                "(recovery for homeless SDSM is prior work, not this paper)"
            )
        #: The diff repository: (page, vt_index) -> [(part, vt, diff)].
        self.diff_repo: Dict[Tuple[int, int], List[Tuple[int, VectorClock, Diff]]] = {}
        #: Bytes retained in the repository (the no-GC cost the paper
        #: charges against homeless protocols).
        self.diff_repo_bytes = 0
        #: Per-page uncovered notices awaiting a fill.
        self.pending: Dict[int, List[IntervalRecord]] = {}
        self._reqid = 0
        # every frame starts as a *valid* copy at version zero (the
        # replicated initial image); no page has a home (home = -1
        # disarms the home-copy guards)
        n = self.cfg.num_nodes
        self.memory.restore(system.space.initial_image())
        for p in range(self.pagetable.npages):
            self.pagetable.set_version(p, VectorClock.zero(n))
            self.pagetable.set_state(p, PageState.CLEAN, "init")
            self.pagetable.set_home(p, -1)
        self.home_events.clear()

    # ==================================================================
    # repository
    # ==================================================================
    def _store_diff(self, page: int, vt_index: int, part: int,
                    vt: VectorClock, diff: Diff) -> None:
        self.diff_repo.setdefault((page, vt_index), []).append((part, vt, diff))
        self.diff_repo_bytes += diff.nbytes
        self.stats.count("repo_diffs")
        self.stats.counters["repo_bytes"] = self.diff_repo_bytes

    def _serve_lrc_diffs(self, req: LrcDiffRequest) -> Generator[Any, Any, None]:
        entries = []
        for page, idx in req.wants:
            for part, vt, diff in self.diff_repo.get((page, idx), []):
                entries.append((diff, self.id, idx, part, vt))
        nbytes = sum(d.nbytes for d, *_rest in entries)
        yield self.cfg.cpu.twin_copy_per_byte_s * nbytes
        reply = LrcDiffReply(req.reqid, entries)
        self._post(req.requester, "lrc_diff_reply", reply)

    # ==================================================================
    # message dispatch: replace the home-based data paths
    # ==================================================================
    def _dispatch(self, msg: NetMessage) -> Generator[Any, Any, None]:
        kind = msg.kind
        if kind == "lrc_diff_req":
            yield from self._serve_lrc_diffs(msg.payload)
        elif kind == "lrc_diff_reply":
            self._deliver_expected(kind, msg.payload.reqid, msg)
        elif kind in ("page_req", "diff", "page_reply", "diff_ack"):
            raise ProtocolError(
                f"homeless LRC received home-based message {kind!r}"
            )
        else:
            yield from super()._dispatch(msg)

    # ==================================================================
    # notices: queue per page instead of relying on an up-to-date home
    # ==================================================================
    def _apply_notices(
        self, records: List[IntervalRecord], cut: VectorClock, barrier: bool = False
    ) -> Generator[Any, Any, None]:
        to_invalidate: List[int] = []
        # one clock merge per batch -- see HlrcNode._apply_notices
        have = self.vt.as_tuple()
        for r in records:
            if have[r.node] > r.index:
                continue
            if not barrier:
                self.table.add(r)
            if r.node != self.id:
                for p in r.pages:
                    entry = self.pagetable.entry(p)
                    if entry.version is not None and entry.version.dominates(r.vt):
                        continue
                    self.pending.setdefault(p, []).append(r)
                    if entry.state is not PageState.INVALID:
                        to_invalidate.append(p)
        self.vt = self.vt.merge(cut)
        dirty_hit = [
            p for p in dict.fromkeys(to_invalidate)
            if self.pagetable.entry(p).state is PageState.DIRTY
        ]
        # a dirty page hit by a notice: keep our words as an early diff
        # in the local repository (nothing is sent -- homeless!)
        for p in dirty_hit:
            entry = self.pagetable.entry(p)
            yield self.cfg.cpu.diff_scan_per_byte_s * self.cfg.page_size
            d = create_diff(p, entry.twin, self.memory.page_bytes(p))
            self.pagetable.drop_twin(p)
            if not d.is_empty:
                self.interval_parts += 1
                early_vt = self.vt.tick(self.id)
                self._store_diff(p, self.vt[self.id], self.interval_parts,
                                 early_vt, d)
                self.stats.count("early_diffs")
        for p in dict.fromkeys(to_invalidate):
            entry = self.pagetable.entry(p)
            if entry.state is not PageState.INVALID:
                self.pagetable.invalidate(p)
                self.stats.count("invalidations")

    # ==================================================================
    # interval end: store diffs locally, send nothing
    # ==================================================================
    def _end_interval(self) -> Generator[Any, Any, None]:
        cpu = self.cfg.cpu
        record = None
        dirty = self.pagetable.take_dirty()
        if dirty:
            vt_index = self.vt[self.id]
            new_vt = self.vt.tick(self.id)
            scan_cost = 0.0
            kept_pages = []
            for p in dirty:
                entry = self.pagetable.entry(p)
                if entry.state is PageState.INVALID:
                    kept_pages.append(p)  # early-diffed already
                    continue
                if entry.twin is None:
                    raise ProtocolError(
                        f"dirty page {p} has no twin on node {self.id}"
                    )
                scan_cost += cpu.diff_scan_per_byte_s * self.cfg.page_size
                d = create_diff(p, entry.twin, self.memory.page_bytes(p))
                self.pagetable.drop_twin(p)
                self.pagetable.set_state(p, PageState.CLEAN, "seal")
                self.pagetable.set_version(p, entry.version.merge(new_vt))
                if not d.is_empty:
                    self._store_diff(p, vt_index, 0, new_vt, d)
                    self.stats.count("diffs_created")
                kept_pages.append(p)
            if scan_cost:
                self.stats.charge("diff", scan_cost)
                yield scan_cost
            record = IntervalRecord(self.id, vt_index, new_vt, tuple(kept_pages))
            self.table.add(record)
            self.vt = new_vt
        # homeless LRC only runs under the 'none' protocol (enforced in
        # __init__), but the seal still crosses the logging seam so the
        # replay contract stays uniform across protocol variants
        self.hooks.notify_interval_end(
            self.interval_index, self.vt, [], [], record
        )
        self._trace("seal", self.interval_index)
        self.interval_index += 1
        self.acq_seq = 0
        self.interval_parts = 0
        self.seal_count += 1

    # ==================================================================
    # faults: gather diffs from writers and apply onto the local frame
    # ==================================================================
    def ensure_read(self, pages) -> Generator[Any, Any, None]:
        for p in pages:
            if self.pagetable.entry(p).state is PageState.INVALID:
                yield from self._fill(p)

    def ensure_write(self, pages) -> Generator[Any, Any, None]:
        cpu = self.cfg.cpu
        for p in pages:
            entry = self.pagetable.entry(p)
            if entry.state is PageState.INVALID:
                yield from self._fill(p)
            if entry.state is PageState.CLEAN:
                yield cpu.twin_copy_per_byte_s * self.cfg.page_size
                self.pagetable.make_twin(p, self.memory.page_bytes(p))
                self.pagetable.set_state(p, PageState.DIRTY, "write")
            self.pagetable.mark_dirty(p)

    def _fill(self, page: int) -> Generator[Any, Any, None]:
        """Validate a page: fetch the uncovered diffs from their writers."""
        t0 = self.sim.now
        yield self.cfg.cpu.page_fault_s
        entry = self.pagetable.entry(page)
        have = entry.version
        needed = [
            r for r in self.pending.pop(page, [])
            if not have.dominates(r.vt)
        ]
        entries = []
        by_writer: Dict[int, List[Tuple[int, int]]] = {}
        for r in needed:
            if r.node == self.id:
                for part, vt, diff in self.diff_repo.get((page, r.index), []):
                    entries.append((diff, r.node, r.index, part, vt))
            else:
                by_writer.setdefault(r.node, []).append((page, r.index))
        # one round trip per writer -- the homeless fault cost the paper
        # contrasts with HLRC's single round trip to the home
        sigs = []
        for writer in sorted(by_writer):
            self._reqid += 1
            req = LrcDiffRequest(self._reqid, self.id, by_writer[writer])
            sigs.append(self.expect("lrc_diff_reply", self._reqid))
            yield from self._send(writer, "lrc_diff_req", req)
        for sig in sigs:
            msg = yield sig
            entries.extend(msg.payload.entries)
        frame = self.memory.page_bytes(page)
        apply_cost = 0.0
        version = have
        for diff, _w, _i, _p, vt in sorted(
            entries, key=lambda e: (e[4].total, e[1], e[2], -e[3])
        ):
            apply_diff(diff, frame)
            apply_cost += self.cfg.cpu.diff_apply_per_byte_s * 4 * diff.word_count
            version = version.merge(vt)
        for r in needed:
            version = version.merge(r.vt)
        if apply_cost:
            yield apply_cost
        self.pagetable.set_state(page, PageState.CLEAN, "fill")
        self.pagetable.set_version(page, version)
        self.stats.count("page_faults")
        self.stats.count("diff_fetch_round_trips", len(sigs))
        self.stats.charge("fault", self.sim.now - t0)
        self._trace("fault", page)
