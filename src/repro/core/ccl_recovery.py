"""CCL recovery: one batched log read + prefetch per interval (Section 3.2).

At the beginning of each replayed interval the recovering node

1. reads its log bundle's coherence metadata in a single disk access
   (notices, update-event records, fetch records; the log's diff-data
   stream is pulled on demand),
2. applies the interval-start write-invalidation notices,
3. launches **one combined wave of batched requests**: per-writer
   fetches of the diffs named by the update-event records (to bring its
   home copies forward) together with per-home reconstruction requests
   for every page the interval will touch (named by the logged fetch
   records) -- "fetches the updates from the logged data on remote
   nodes at the beginning of each time interval",
4. rebuilds pages to their exact fetch-time versions: directly when the
   home's frozen copy is that version, as a *delta* onto the retained
   stale frame when one exists (only the ``(have, needed]`` diffs are
   gathered), or from the home's checkpoint image otherwise.

Prefetching eliminates the memory-miss idle time entirely -- a replay
fault on an invalid page is a protocol bug here, and is raised as one.
Mid-interval acquires (windows > 0) run the same wave without the
update events, which only exist at interval granularity.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Tuple

import numpy as np

from ..dsm.interval import VectorClock
from ..dsm.messages import ReconPage, ReconRequest
from ..errors import RecoveryError
from ..memory.diff import apply_diff
from ..memory.page import PageState
from ..sim.network import NetMessage
from .logrecords import FetchLogRecord, OwnDiffLogRecord, UpdateEventLogRecord
from .recovery import ReplayEngine, ReplayNode

__all__ = ["CclEngine"]

#: (page, interval, part) triples wanted from one writer.
Wants = Dict[int, List[Tuple[int, int, int]]]


class CclEngine(ReplayEngine):
    """Materialise a CCL-logged interval from metadata + peers' diff logs."""

    def begin_interval(self, node: ReplayNode) -> Generator[Any, Any, None]:
        """One batched disk read of the interval's coherence metadata.

        The log is organised as two streams -- coherence metadata
        (notices, update events, fetch records) and diff data -- so the
        per-interval boundary scan only pays for the small metadata;
        own diffs are pulled on demand when a reconstruction history
        references this node as a writer.  Nothing more is read per
        window, and the home updates are folded into the interval-start
        :meth:`prefetch` wave.
        """
        nbytes = sum(
            r.nbytes
            for r in node.plog.bundle(node.interval_index)
            if not isinstance(r, OwnDiffLogRecord)
        )
        yield from node._disk_read("log_read", nbytes)

    def prefetch(self, node: ReplayNode, window: int) -> Generator[Any, Any, None]:
        """One combined wave of event-diff fetches + page reconstruction.

        Update events only exist at interval granularity, so the
        interval-start window (0) carries them and mid-interval
        acquires (windows > 0) run the same wave without.
        """
        event_wants: Wants = {}
        if window == 0:
            seen = set()
            for ev in node.plog.select(
                UpdateEventLogRecord, interval=node.interval_index
            ):
                for page in ev.pages:
                    key = (ev.writer, page, ev.writer_index, ev.part)
                    if key in seen:
                        continue
                    seen.add(key)
                    event_wants.setdefault(ev.writer, []).append(
                        (page, ev.writer_index, ev.part)
                    )

        fetches = node.plog.select(
            FetchLogRecord, interval=node.interval_index, window=window
        )
        # split pages into *warm* (a stale frame with a known version is
        # still resident: reconstruct locally by range-querying exactly
        # the writers whose vector components advanced -- no home round
        # trip) and *cold* (never held: ask the home for a direct copy
        # or a checkpoint image + history)
        warm: List[Tuple[int, VectorClock]] = []
        warm_ranges: Wants = {}
        recon_by_home: Dict[int, List] = {}
        for rec in fetches:
            assert rec.version is not None
            entry = node.pagetable.entry(rec.page)
            have = entry.version
            if have is not None:
                warm.append((rec.page, rec.version))
                for j in range(node.cfg.num_nodes):
                    if rec.version[j] > have[j]:
                        warm_ranges.setdefault(j, []).append(
                            (rec.page, have[j], rec.version[j] - 1)
                        )
            else:
                recon_by_home.setdefault(entry.home, []).append(
                    (rec.page, rec.version)
                )
        if not event_wants and not warm and not recon_by_home:
            return

        # ---- wave 1: cold recon metadata + event diffs + warm deltas
        recon_sigs = []
        if node.timed:
            for home in sorted(recon_by_home):
                req = ReconRequest(node.id, recon_by_home[home])
                yield from node.net.send(
                    NetMessage(node.id, home, "recon_req", req, req.nbytes)
                )
                recon_sigs.append(
                    node.net.mailbox(node.id).get(
                        lambda m, h=home: m.kind == "recon_reply"
                        and m.payload.home == h
                    )
                )
        wave1 = node._unsealed(
            (yield from node._gather_diffs(event_wants, warm_ranges)))

        if node.timed:
            items: List[ReconPage] = []
            with node.stats.bracket(node.sim, "prefetch"):
                for sig in recon_sigs:
                    msg = yield sig
                    items.extend(msg.payload.items)
        else:
            items = []
            for home in sorted(recon_by_home):
                reply = node.responders[home].serve_recon(
                    ReconRequest(node.id, recon_by_home[home])
                )
                items.extend(reply.items)

        # ---- apply update events to home copies (causal order); event
        # pages are homed here, warm pages are not, so split by home
        cpu_cost = 0.0
        by_page: Dict[int, list] = {}
        for e in node.causal_sort(wave1):
            diff = e[0]
            if node.pagetable.entry(diff.page).home == node.id:
                apply_diff(diff, node.memory.page_bytes(diff.page))
                entry = node.pagetable.entry(diff.page)
                node.pagetable.set_version(diff.page, entry.version.merge(e[4]))
                cpu_cost += node.cfg.cpu.diff_apply_per_byte_s * 4 * diff.word_count
                node.stats.count("replay_diffs_applied")
            else:
                by_page.setdefault(diff.page, []).append(e)

        # ---- warm pages: apply the delta onto the retained stale frame
        for page, needed in warm:
            frame = node.memory.page_bytes(page)
            for diff, _w, _i, _p, _vt in node.causal_sort(by_page.get(page, [])):
                apply_diff(diff, frame)
                cpu_cost += node.cfg.cpu.diff_apply_per_byte_s * 4 * diff.word_count
            node.pagetable.set_state(page, PageState.CLEAN, "fetch")
            node.pagetable.set_version(page, needed)
            node.stats.count("pages_prefetched")
            node.stats.count("prefetch_delta")

        # ---- cold pages: direct installs, then checkpoint rebuilds
        needed_by_page = {rec.page: rec.version for rec in fetches}
        rebuilds: List[Tuple[int, VectorClock, np.ndarray]] = []
        histories: Wants = {}
        for item in items:
            if item.direct is not None:
                self._install(node, item.page, item.direct, item.version)
                node.stats.count("prefetch_direct")
                continue
            assert item.checkpoint is not None
            rebuilds.append((item.page, needed_by_page[item.page], item.checkpoint))
            node.stats.count("prefetch_rebuilt")
            for writer, idx, part in dict.fromkeys(item.history):
                histories.setdefault(writer, []).append((item.page, idx, part))

        if rebuilds:
            entries = node._unsealed((yield from node._gather_diffs(histories)))
            cold_by_page: Dict[int, list] = {}
            for e in entries:
                cold_by_page.setdefault(e[0].page, []).append(e)
            for page, needed, base in rebuilds:
                image = base.copy()
                for diff, _w, _i, _p, vt in node.causal_sort(
                    cold_by_page.get(page, [])
                ):
                    # client-side version filter: a *failed* home serves
                    # its history unfiltered (its event records carry no
                    # timestamps), so drop diffs beyond the needed
                    # version here -- each diff travels with its vt
                    if not needed.dominates(vt):
                        continue
                    apply_diff(diff, image)
                    cpu_cost += (
                        node.cfg.cpu.diff_apply_per_byte_s * 4 * diff.word_count
                    )
                self._install(node, page, image, needed)
        yield from node._spend("diff", cpu_cost)

    @staticmethod
    def _install(node: ReplayNode, page: int, contents: np.ndarray, version) -> None:
        node.memory.page_bytes(page)[:] = contents
        node.pagetable.set_state(page, PageState.CLEAN, "fetch")
        node.pagetable.set_version(page, version)
        node.stats.count("pages_prefetched")

    # ------------------------------------------------------------------
    def fault(self, node: ReplayNode, page: int) -> Generator[Any, Any, None]:
        raise RecoveryError(
            f"CCL replay faulted on page {page} in interval "
            f"{node.interval_index}: prefetch should have covered it"
        )
        yield  # pragma: no cover - generator marker
