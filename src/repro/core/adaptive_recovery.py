"""Adaptive recovery: materialise each logged interval by ML or CCL.

An adaptive log is a sequence of interval segments, each written in the
mode the cost model had picked at the previous seal, delimited by
:class:`~repro.core.logrecords.ModeSwitchLogRecord` markers (the bind-
time marker names interval 0's mode, every later marker the interval
its switch takes effect at).  Replay reads the full marker list up
front -- the markers are tiny and live in the metadata stream -- and
the replay skeleton then asks :meth:`AdaptiveReplayNode.mode_at` which
engine materialises the *current* interval:

* ML-mode intervals replay purely locally
  (:class:`~repro.core.ml_recovery.MlEngine`): boundary scan of the
  logged contents, lazy page-copy reads at memory misses;
* CCL-mode intervals replay coherence-centrically
  (:class:`~repro.core.ccl_recovery.CclEngine`): one metadata scan,
  then a combined wave of writer-log diff fetches and home
  reconstructions.

The choice is made per step, not once per interval start, so every
step of an interval -- boundary read, mid-interval windows, faults --
resolves to the engine of the mode that logged it.
"""

from __future__ import annotations

from typing import List, Tuple

from .ccl_recovery import CclEngine
from .logrecords import ModeSwitchLogRecord
from .ml_recovery import MlEngine
from .recovery import ReplayNode

__all__ = ["AdaptiveReplayNode"]


class AdaptiveReplayNode(ReplayNode):
    """Replay node for adaptive hybrid logs (per-interval engine choice)."""

    protocol = "adaptive"
    engines = {"ml": MlEngine, "ccl": CclEngine}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        markers = sorted(
            self.plog.select(ModeSwitchLogRecord),
            key=lambda r: r.interval,
        )
        #: ``(first_interval, mode)`` switch points in interval order.
        self.switch_points: List[Tuple[int, str]] = [
            (r.interval, r.mode) for r in markers
        ]

    def mode_at(self, interval: int) -> str:
        """The logging mode in effect during ``interval``.

        Defaults to the adaptive protocol's start mode when the log
        holds no marker at or below the interval (a truncated view cut
        before the bind-time marker never replays -- a durable view
        without it has no durable records at all)."""
        mode = "ml"
        for first, m in self.switch_points:
            if first <= interval:
                mode = m
            else:
                break
        return mode
