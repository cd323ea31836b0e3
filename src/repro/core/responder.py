"""Surviving-node recovery responders.

During recovery only the failed node re-executes; survivors merely
*serve* three kinds of requests out of state they already hold:

* ``recon_req`` -- a page **as of** a given version.  If the survivor's
  frozen home copy is exactly the needed version it ships it directly
  (one round trip, like a normal fault); otherwise it ships its
  checkpointed image of the page together with the page's update
  history filtered to the needed version, and the recovering node
  gathers the corresponding diffs from writer logs and rebuilds the
  exact version (Section 3.2's remote-copy reconstruction).
* ``logdiff_req`` -- logged diffs by ``(page, writer interval)``, read
  from the survivor's stable log (a real disk read on the survivor).
* Responders never initiate traffic, matching the paper's observation
  that recovery enjoys "lighter traffic over the network".

The serving logic is pure (:meth:`serve_recon`, :meth:`serve_logdiff`)
so checkpoint fast-forward can invoke it without simulated cost; the
:meth:`loop` generator wraps it with network/disk timing for timed
replay.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Tuple

import numpy as np

from ..dsm.hlrc import HlrcNode
from ..dsm.interval import VectorClock
from ..dsm.messages import (
    LogDiffReply,
    LogDiffRequest,
    ReconPage,
    ReconReply,
    ReconRequest,
)
from ..errors import RecoveryError
from ..sim.disk import Disk
from ..sim.network import NetMessage, Network

__all__ = ["SurvivorResponder", "FailedNodeResponder"]


class SurvivorResponder:
    """One survivor's recovery service, built from its phase-A state."""

    def __init__(self, node: HlrcNode, checkpoint_image: np.ndarray):
        self.id = node.id
        self.page_size = node.cfg.page_size
        self.log = getattr(node.hooks, "log", None)
        self.home_events = node.home_events
        self.final_memory = node.memory
        self.final_versions: Dict[int, VectorClock] = {
            p: node.pagetable.entry(p).version for p in node.pagetable.home_pages()
        }
        #: The survivor's most recent checkpoint image, by page (the
        #: shared initial image in the paper's no-intermediate-checkpoint
        #: experiments).
        self.checkpoint_pages = checkpoint_image.reshape(-1, self.page_size)
        self.requests_served = 0

    # ------------------------------------------------------------------
    # pure serving logic (no simulated cost)
    # ------------------------------------------------------------------
    def serve_recon(self, req: ReconRequest) -> ReconReply:
        """Answer a batched page-as-of-version request."""
        items: List[ReconPage] = []
        for page, needed_vt, have_vt in req.wants:
            if page not in self.final_versions:
                raise RecoveryError(
                    f"recon for page {page} sent to non-home survivor {self.id}"
                )
            self.requests_served += 1
            frozen = self.final_versions[page]
            if needed_vt.dominates(frozen):
                # no updates beyond the needed version: ship the live copy
                items.append(
                    ReconPage(
                        page,
                        direct=self.final_memory.page_bytes(page).copy(),
                        version=frozen,
                    )
                )
                continue
            if have_vt is not None:
                # delta rebuild: the requester's stale frame is exactly
                # the page at `have`; ship only the (have, needed] events
                history = [
                    (writer, idx, part)
                    for (writer, idx, part, vt) in self.home_events.get(page, [])
                    if needed_vt.dominates(vt) and not have_vt.dominates(vt)
                ]
                items.append(ReconPage(page, delta=True, history=history))
                continue
            history = [
                (writer, idx, part)
                for (writer, idx, part, vt) in self.home_events.get(page, [])
                if needed_vt.dominates(vt)
            ]
            items.append(
                ReconPage(
                    page,
                    checkpoint=self.checkpoint_pages[page].copy(),
                    history=history,
                )
            )
        return ReconReply(self.id, items)

    def serve_logdiff(self, req: LogDiffRequest) -> Tuple[LogDiffReply, int]:
        """Answer a logged-diff request; returns (reply, disk bytes read)."""
        if self.log is None:
            raise RecoveryError(f"survivor {self.id} has no stable log")
        self.requests_served += 1
        entries = []
        read_bytes = 0
        for page, idx, part in req.wants:
            diff, vt = self.log.find_own_diff(page, idx, part)
            entries.append((diff.copy(), self.id, idx, part, vt))
            read_bytes += diff.nbytes
        for page, lo, hi in req.ranges:
            for diff, idx, part, vt in self.log.find_own_diffs_in_range(
                page, lo, hi
            ):
                entries.append((diff.copy(), self.id, idx, part, vt))
                read_bytes += diff.nbytes
        return LogDiffReply(entries), read_bytes

    # ------------------------------------------------------------------
    # timed service loop (phase-B simulation)
    # ------------------------------------------------------------------
    def loop(self, net: Network, disk: Disk) -> Generator[Any, Any, None]:
        """Serve requests forever with network/disk costs (killed at end).

        The receive predicate matters: in multi-failure recovery a node
        can be both a replaying victim and a responder for its peers,
        so the responder must only consume *request* messages and leave
        replies for the replay engine.
        """
        mbox = net.mailbox(self.id)
        is_request = lambda m: m.kind in ("recon_req", "logdiff_req")  # noqa: E731
        while True:
            msg: NetMessage = yield mbox.get(is_request)
            if msg.kind == "recon_req":
                reply = self.serve_recon(msg.payload)
                net.post(NetMessage(self.id, msg.src, "recon_reply", reply,
                                    reply.nbytes))
            else:
                reply, read_bytes = self.serve_logdiff(msg.payload)
                yield self._log_read(disk, read_bytes)
                net.post(NetMessage(self.id, msg.src, "logdiff_reply", reply,
                                    reply.nbytes))

    def _log_read(self, disk: Disk, nbytes: int):
        """A survivor's own log is still warm in its buffer cache."""
        return disk.read_cached(nbytes)


class FailedNodeResponder(SurvivorResponder):
    """Recovery service of a node that itself crashed.

    Multi-failure recovery: a crashed node's *memory* is gone, but its
    stable log survives, and CCL made it log its own outgoing (and
    home-write) diffs durably -- so its disk can still serve everything
    a peer's recovery needs:

    * ``logdiff`` queries read straight from the log (cold cache: the
      node rebooted);
    * ``recon`` queries cannot use the frozen-copy fast path or the
      in-memory update-event table; instead the page's update history
      is re-derived from the log's event records and home-write diff
      records.  Event records carry no vector timestamps, so the reply
      history is *unfiltered* and the requester filters fetched diffs
      against its needed version (client-side filtering is always sound
      -- every diff travels with its timestamp).
    """

    def __init__(self, node, checkpoint_image: np.ndarray, log):
        # note: deliberately NOT calling super().__init__ -- the frozen
        # memory/state of `node` must not be touched (it is "lost")
        self.id = node.id
        self.page_size = node.cfg.page_size
        self.log = log
        self.home_pages = set(node.pagetable.home_pages())
        self.checkpoint_pages = checkpoint_image.reshape(-1, self.page_size)
        self.requests_served = 0

    def serve_recon(self, req: ReconRequest) -> ReconReply:
        items: List[ReconPage] = []
        for page, _needed_vt, have_vt in req.wants:
            if page not in self.home_pages:
                raise RecoveryError(
                    f"recon for page {page} sent to non-home node {self.id}"
                )
            self.requests_served += 1
            history = list(self.log.event_history(page))
            history += [
                (self.id, idx, part)
                for idx, part in self.log.home_diff_history(page)
            ]
            if have_vt is not None:
                # delta onto the requester's stale frame: ship the
                # unfiltered history; the requester applies only diffs
                # in (have, needed]
                items.append(ReconPage(page, delta=True, history=history))
            else:
                items.append(
                    ReconPage(
                        page,
                        checkpoint=self.checkpoint_pages[page].copy(),
                        history=history,
                    )
                )
        return ReconReply(self.id, items)

    def _log_read(self, disk: Disk, nbytes: int):
        """A rebooted node's log is cold: pay the sequential-scan price."""
        return disk.read_seq(nbytes)
