"""Adaptive hybrid logging: switch between CCL and ML per interval.

The paper evaluates coherence-centric logging (Section 3.2) and
traditional message logging (Section 3.1) as static, whole-run choices.
This protocol hosts both and picks per interval, following the online
cost-model framing of "Adaptive Logging for Distributed In-memory
Databases" (PAPERS.md): ML's content-bearing log buys purely local
replay (no recovery network traffic), CCL's metadata log buys near-zero
failure-free overhead but replays across the network.  A per-node
``recovery_budget`` (virtual seconds, the "Partially Constrained
Transaction Logs" framing) bounds the projected worst-case recovery
time; within the budget the node runs in CCL mode, and when the
projection would overrun it the node falls back to ML mode -- but only
when ML replay is actually estimated to be faster.

Mechanics:

* The two modes are two :class:`~repro.dsm.logginghooks.LogPolicy`
  values that differ only in ``contents`` and the flush: both log CCL's
  *skeleton* -- what peers' recoveries query (``logdiff_req`` serving,
  event/home-diff histories) -- so a node's mode flips never disturb
  anyone else's recovery.  ML mode adds full page copies and
  incoming-diff contents; CCL mode fetch records instead.
* Decisions happen exclusively at interval-seal boundaries -- the only
  points where the coherence layer holds no twins and no partially
  logged interval -- and each flip appends a
  :class:`~repro.core.logrecords.ModeSwitchLogRecord` tagged with the
  *next* interval, so replay can dispatch every logged interval segment
  to the matching replay engine
  (:meth:`~repro.core.recovery.ReplayNode.mode_at`).
* A decided flip *commits lazily*: the coherence layer can still
  deliver messages tagged with the sealed interval while the seal
  waits for diff acks, and those stragglers must be logged in the mode
  their interval replays under.  The marker and the policy are
  applied by the first hook that runs with the next interval's tag,
  which also keeps the log's interval tags monotone.
* The model consumes only simulated measurements (logged byte counts,
  per-interval compute time, the cluster's disk/network constants), so
  switch schedules are deterministic: same seed, same switches.

The first interval always runs in ML mode (local replay is the
conservative choice before any measurements exist); with the default
unbounded budget the model flips to CCL at the first seal, so every
adaptive log is a mixed-mode log and the chaos suites exercise
per-interval dispatch continuously.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from typing import Any, Optional, Tuple

import numpy as np

from ..dsm.interval import VectorClock
from ..dsm.logginghooks import LogPolicy
from ..dsm.messages import DiffBatch
from .logrecords import (
    FetchLogRecord,
    IncomingDiffLogRecord,
    LogRecord,
    ModeSwitchLogRecord,
    NoticeLogRecord,
    PageCopyLogRecord,
    UpdateEventLogRecord,
)
from .policylogging import CCL, PolicyLogging

__all__ = ["AdaptiveLogging", "ML_MODE"]

#: ML mode: ML's received contents and sync-entry flush on top of the
#: skeleton every mode logs, whose own diffs the seal's flush makes
#: durable.  CCL mode is :data:`CCL` itself.
ML_MODE = replace(CCL, name="ml", contents=True, sync_flush=True)
_MODES = {p.name: p for p in (ML_MODE, CCL)}


class AdaptiveLogging(PolicyLogging):
    """Hybrid CCL/ML logging driven by an online recovery-cost model."""

    #: Exponential-moving-average weight of the newest interval.
    EMA_ALPHA = 0.5
    #: Minimum number of future intervals the budget projection charges
    #: at the current per-interval rate.  The effective horizon grows
    #: with the run (at interval *k* the projection assumes at least
    #: *k* more intervals -- the doubling heuristic), so longer runs
    #: fall back to ML correspondingly earlier.  Larger values switch
    #: to ML earlier (more conservative about the budget).
    HEADROOM_INTERVALS = 8
    #: Fall back to ML only when its whole-run replay estimate beats
    #: CCL's by at least this factor.  When the two directions are
    #: within the estimator's noise band, switching cannot reliably
    #: help the budget and only costs overhead.
    DIRECTION_MARGIN = 0.8

    def __init__(self, policy: LogPolicy = ML_MODE,
                 recovery_budget: Optional[float] = None):
        # ``policy`` is the mode of interval 0, before any measurement
        # exists; the coherence layer reads ``policy`` at every sync
        # entry / interval end, so a switch at a seal boundary changes
        # policy for exactly the next interval.
        super().__init__(policy)
        self.name = "adaptive"
        #: Worst-case recovery-time bound in virtual seconds
        #: (None = unbounded: pure overhead minimisation).
        self.recovery_budget = recovery_budget
        self.mode_switches = 0
        #: Actual appended log bytes attributed to the mode in effect.
        self.mode_bytes = dict.fromkeys(_MODES, 0)

    def bind(self, node) -> None:
        super().bind(node)
        # -- cost-model state ------------------------------------------
        self._compute_mark = 0.0
        #: Estimated replay time of the work committed so far, interval
        #: by interval, each priced in the mode that actually logged it.
        self._committed = 0.0
        self._ema_ml: Optional[float] = None
        self._ema_ccl = 0.0
        self._ema_compute = 0.0
        #: Pages this node has ever fetched.  A *re*-fetch means the
        #: page churned under invalidations, so at replay its exact
        #: version needs the delta/rebuild path (an extra gather wave)
        #: rather than a direct home copy.
        self._fetched_pages: set = set()
        #: Whole-run replay estimates had every interval been logged in
        #: one mode -- the stable signal for which direction to take
        #: when the budget forces a choice (per-interval EMAs flicker).
        self._sum_ml = 0.0
        self._sum_ccl = 0.0
        #: Once the budget forces a fallback the node stays in ML: the
        #: committed replay estimate only grows, so the pressure that
        #: forced the switch never relaxes, and flapping would re-log
        #: page contents for nothing.
        self._budget_latched = False
        #: A decided-but-uncommitted switch: (first interval of the new
        #: mode, the marker record to append when it commits).
        self._pending_switch: Optional[Tuple[int, ModeSwitchLogRecord]] = None
        self._reset_interval_tallies()
        # every log opens with its starting mode so replay never guesses
        self._append(ModeSwitchLogRecord(0, 0, mode=self.policy.name,
                                         prev_mode=""))

    def _reset_interval_tallies(self) -> None:
        #: Bytes per record type this interval: logged, or -- for the
        #: receive-side records of the mode not in effect -- priced.
        self._iv_bytes: Counter = Counter()
        self._iv_fetches = 0
        self._iv_incoming_payload = 0  # raw diff bytes applied to homes
        self._iv_writers: set = set()
        self._iv_fetch_homes: set = set()
        self._iv_refetches = 0

    def _tally(self, rec: LogRecord) -> None:
        self._iv_bytes[type(rec)] += rec.nbytes

    def _append(self, rec: LogRecord) -> None:
        super()._append(rec)
        self.mode_bytes[self.policy.name] += rec.nbytes
        self._tally(rec)

    # ------------------------------------------------------------------
    # receipt-side hooks: log what the mode's policy asks for, price the
    # contents records of the other mode
    # ------------------------------------------------------------------
    def on_notices_received(self, *args: Any) -> None:
        self._commit_pending_switch()
        super().on_notices_received(*args)

    def on_page_fetched(
        self, page: int, contents: np.ndarray, version: VectorClock, window: int
    ) -> None:
        self._commit_pending_switch()
        super().on_page_fetched(page, contents, version, window)
        iv = self.node.interval_index
        self._tally(FetchLogRecord(iv, window, page, version)
                    if self.policy.contents else
                    PageCopyLogRecord(iv, window, page, contents, version))
        self._iv_fetches += 1
        self._iv_fetch_homes.add(self.node.pagetable.entry(page).home)
        if page in self._fetched_pages:
            self._iv_refetches += 1
        else:
            self._fetched_pages.add(page)

    def on_update_received(self, batch: DiffBatch) -> None:
        self._commit_pending_switch()
        # the event record is skeleton: FailedNodeResponder re-derives a
        # crashed home's update history from it in every mode
        super().on_update_received(batch)
        if not self.policy.contents:
            self._tally(IncomingDiffLogRecord(
                self.node.interval_index, 0, batch.writer,
                batch.interval_index, batch.vt, batch.diffs,
            ))
        self._iv_incoming_payload += sum(d.nbytes for d in batch.diffs)
        self._iv_writers.add(batch.writer)

    # ------------------------------------------------------------------
    # seal: log own diffs, re-price the interval, maybe switch mode
    # ------------------------------------------------------------------
    def on_interval_end(self, interval_index: int, *args: Any) -> None:
        self._commit_pending_switch()
        super().on_interval_end(interval_index, *args)
        self._decide(interval_index)
        self._reset_interval_tallies()

    def _estimate_replay(self) -> Tuple[float, float]:
        """Estimated replay time of the just-sealed interval, both modes.

        Priced from the cluster's disk/network/CPU constants against the
        interval's observed traffic -- the same quantities the replay
        engines charge, without running them.
        """
        cfg = self.node.cfg
        disk, net, cpu = cfg.disk, cfg.network, cfg.cpu
        rtt = 2 * (net.latency_s + net.send_overhead_s + net.recv_overhead_s)
        apply_t = cpu.diff_apply_per_byte_s * self._iv_incoming_payload
        nbytes = self._iv_bytes
        # ML: boundary scan of notices + diff contents, then one local
        # disk read per memory miss for the logged page copy
        ml_meta = nbytes[NoticeLogRecord] + nbytes[IncomingDiffLogRecord]
        r_ml = disk.seq_read_time(ml_meta) if ml_meta else 0.0
        if self._iv_fetches:
            r_ml += self._iv_fetches * (cpu.page_fault_s + disk.seq_read_latency_s)
            r_ml += nbytes[PageCopyLogRecord] / disk.bandwidth_bps
        r_ml += apply_t
        # CCL: smaller metadata scan, then one logdiff wave to the
        # writers and one reconstruction wave to the homes
        ccl_meta = (nbytes[NoticeLogRecord] + nbytes[UpdateEventLogRecord]
                    + nbytes[FetchLogRecord])
        r_ccl = disk.seq_read_time(ccl_meta) if ccl_meta else 0.0
        per_peer = net.send_overhead_s + net.recv_overhead_s
        if self._iv_writers:
            r_ccl += rtt + net.transfer_time(self._iv_incoming_payload)
            r_ccl += (len(self._iv_writers) - 1) * per_peer
        if self._iv_fetches:
            r_ccl += rtt + net.transfer_time(self._iv_fetches * cfg.page_size)
            r_ccl += (len(self._iv_fetch_homes) - 1) * per_peer
            if self._iv_refetches:
                # a re-fetched page churned past the home's frozen copy:
                # its exact version comes from the delta/rebuild path,
                # a second serialised gather wave
                r_ccl += rtt
        r_ccl += apply_t
        return r_ml, r_ccl

    def _decide(self, interval_index: int) -> None:
        r_ml, r_ccl = self._estimate_replay()
        compute_now = self.node.stats.time.get("compute")
        compute_i = compute_now - self._compute_mark
        self._compute_mark = compute_now
        self._committed += compute_i + (r_ml if self.policy.contents else r_ccl)
        self._sum_ml += r_ml
        self._sum_ccl += r_ccl
        a = self.EMA_ALPHA
        if self._ema_ml is None:
            self._ema_ml, self._ema_ccl, self._ema_compute = r_ml, r_ccl, compute_i
        else:
            self._ema_ml = a * r_ml + (1 - a) * self._ema_ml
            self._ema_ccl = a * r_ccl + (1 - a) * self._ema_ccl
            self._ema_compute = a * compute_i + (1 - a) * self._ema_compute
        want = CCL
        if self.recovery_budget is not None:
            projected = self._committed + self.HEADROOM_INTERVALS * (
                self._ema_compute + self._ema_ccl
            )
            if self._budget_latched or (
                self._sum_ml < self.DIRECTION_MARGIN * self._sum_ccl
                and projected > self.recovery_budget
            ):
                # CCL replay is projected to overrun the budget and ML
                # replay is estimated decisively faster: fall back to
                # local replay, and stay there (the committed estimate
                # only grows, so the pressure never relaxes)
                self._budget_latched = True
                want = ML_MODE
        if want is not self.policy:
            self.mode_switches += 1
            # effective from the *next* interval, committed lazily: the
            # seal can still deliver messages tagged with the sealed
            # interval while it waits for diff acks, and those must log
            # in the old mode (the mode their interval replays under)
            self._pending_switch = (interval_index + 1, ModeSwitchLogRecord(
                interval_index + 1, 0, mode=want.name,
                prev_mode=self.policy.name, est_replay_ml=self._ema_ml,
                est_replay_ccl=self._ema_ccl,
            ))

    def _commit_pending_switch(self) -> None:
        """Apply a decided mode switch once its interval has begun.

        Runs at the top of every logging hook: the first record tagged
        with the new interval lands after the marker, straggler records
        tagged with the sealed interval land before it, so interval
        tags stay monotone and every record's schema matches the
        replay engine its interval dispatches to.
        """
        if self._pending_switch is None:
            return
        at, marker = self._pending_switch
        if self.node.interval_index < at:
            return
        self._pending_switch = None
        self._append(marker)
        self.policy = _MODES[marker.mode]

    def log_summary(self) -> dict:
        summary = self.log.summary()
        summary["mode_switches"] = self.mode_switches
        summary["ml_mode_bytes"] = self.mode_bytes["ml"]
        summary["ccl_mode_bytes"] = self.mode_bytes["ccl"]
        return summary
