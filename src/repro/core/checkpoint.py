"""Per-process checkpointing (paper Section 3.2).

"A checkpoint consists of all local and shared memory contents, the
state of execution, and all internal data structures used by home-based
SDSM.  The first checkpoint flushes all shared memory pages to stable
storage, and then only those pages that have been modified since the
last checkpoint will be included in a subsequent checkpoint."

:class:`Checkpointer` implements exactly that: a full image first, then
page-granular incremental images, each written to the node's disk with
real sizes.  Checkpoints are taken at interval boundaries every
``every`` sealed intervals (independent checkpointing -- the paper's
logging protocol guarantees bounded rollback without coordination).

Recovery uses a checkpoint by charging its restore read and starting
*timed* replay at the checkpoint's seal index; the preceding intervals
are re-executed data-only at zero simulated cost, which models an
instantaneous process-image restore while keeping the replayed memory
contents real (and testable against the checkpoint snapshot).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Tuple

import numpy as np

from ..dsm.hlrc import HlrcNode
from ..dsm.interval import VectorClock
from ..errors import CheckpointError
from ..memory.page import PageState

__all__ = ["CheckpointMeta", "CheckpointSnapshot", "Checkpointer"]


@dataclass(frozen=True)
class CheckpointMeta:
    """Size/time accounting for one checkpoint."""

    seal: int
    time: float
    nbytes: int
    pages_written: int
    full: bool


class CheckpointSnapshot:
    """The restorable state captured by one checkpoint."""

    def __init__(self, node: HlrcNode, seal: int, nbytes: int,
                 image: np.ndarray):
        self.seal = seal
        self.nbytes = nbytes
        self.memory: np.ndarray = image
        self.vt: VectorClock = node.vt
        self.interval_index: int = node.interval_index
        self.page_states: Dict[int, Tuple[PageState, Optional[VectorClock]]] = (
            node.pagetable.states()
        )


class Checkpointer:
    """Periodic full + incremental checkpoints for one node."""

    #: Bytes of execution state (registers, protocol tables) per checkpoint.
    STATE_BYTES = 4096

    def __init__(self, every: int, retention: Optional[int] = None):
        if every < 1:
            raise CheckpointError(f"checkpoint interval must be >= 1, got {every}")
        if retention is not None and retention < 1:
            raise CheckpointError(
                f"checkpoint retention must be >= 1, got {retention}"
            )
        self.every = every
        #: Keep at most this many checkpoints; after each new one the
        #: oldest beyond the depth are retired and the node's log is
        #: truncated below the oldest *retained* seal (checkpoint-driven
        #: log reclamation).  ``None`` = keep everything, never truncate.
        self.retention = retention
        self.retired: List[int] = []
        self._last_image: Optional[np.ndarray] = None
        self.metas: List[CheckpointMeta] = []
        self.snapshots: Dict[int, CheckpointSnapshot] = {}

    # ------------------------------------------------------------------
    def maybe_take(self, node: HlrcNode) -> Generator[Any, Any, None]:
        """Take a checkpoint if the node's seal count hits the period."""
        if node.seal_count % self.every == 0:
            yield from self.take(node)

    def take(self, node: HlrcNode) -> Generator[Any, Any, None]:
        """Write a checkpoint now (full if first, else incremental)."""
        image = node.memory.snapshot()
        page = node.cfg.page_size
        npages = len(image) // page
        if self._last_image is None:
            pages_written = npages
            full = True
        else:
            old = self._last_image.reshape(npages, page)
            new = image.reshape(npages, page)
            changed = np.any(old != new, axis=1)
            pages_written = int(changed.sum())
            full = False
        nbytes = pages_written * page + self.STATE_BYTES
        # the restorable state is what the image was taken from: home
        # updates may arrive while the write is in flight, and the log
        # tags those with the next interval
        snapshot = CheckpointSnapshot(node, node.seal_count, nbytes, image)
        with node.stats.bracket(node.sim, "checkpoint"):
            yield node.disk.write(nbytes)
        node.stats.count("checkpoints")
        node.stats.count("checkpoint_bytes", nbytes)
        self._last_image = image
        self.metas.append(
            CheckpointMeta(node.seal_count, node.sim.now, nbytes, pages_written, full)
        )
        self.snapshots[node.seal_count] = snapshot
        if self.retention is not None:
            kept = sorted(self.snapshots)
            while len(kept) > self.retention:
                seal = kept.pop(0)
                del self.snapshots[seal]
                self.retired.append(seal)
            log = getattr(node.hooks, "log", None)
            if log is not None:
                # the log below the oldest retained checkpoint can never
                # be replayed again: reclaim those segments
                log.truncate_below(kept[0])

    # ------------------------------------------------------------------
    def latest_before(self, seal: int) -> Optional[CheckpointSnapshot]:
        """The most recent checkpoint taken at or before ``seal``."""
        candidates = [s for s in self.snapshots if s <= seal]
        if not candidates:
            return None
        return self.snapshots[max(candidates)]
