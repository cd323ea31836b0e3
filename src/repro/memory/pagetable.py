"""Per-node page tables.

Each node keeps a :class:`PageTable` describing its copy of every shared
page: protection state, home node, the twin (when DIRTY), and an opaque
``version`` slot that the coherence layer uses for vector-timestamp
bookkeeping.  The table also tallies transition counters that feed the
harness's fault statistics.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import PageError
from .bufferpool import BufferPool
from .page import PageState

__all__ = ["PageEntry", "PageTable", "TransitionFn"]

#: Callback fired on every page-state transition:
#: ``fn(page, old_state, new_state, reason)``.
TransitionFn = Callable[[int, PageState, PageState, str], None]


class PageEntry:
    """State of one node's copy of one shared page."""

    __slots__ = ("page", "home", "state", "twin", "version")

    def __init__(self, page: int, home: int):
        self.page = page
        self.home = home
        #: Protection state of the local copy.
        self.state = PageState.INVALID
        #: Pristine copy made before the first write of an interval.
        self.twin: Optional[np.ndarray] = None
        #: Opaque coherence version (a vector timestamp in the DSM layer).
        self.version: Any = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        t = "twin" if self.twin is not None else "no-twin"
        return f"<PageEntry p{self.page} home={self.home} {self.state.value} {t}>"


class PageTable:
    """All page entries of one node, plus transition counters."""

    def __init__(
        self,
        node: int,
        npages: int,
        homes: List[int],
        pool: Optional[BufferPool] = None,
    ):
        if len(homes) != npages:
            raise PageError(f"{npages} pages but {len(homes)} home assignments")
        self.node = node
        self.npages = npages
        #: Optional recycler for twin buffers; None allocates per twin.
        self.pool = pool
        self._entries = [PageEntry(p, homes[p]) for p in range(npages)]
        #: Pages written during the current interval (home and non-home).
        self.dirty_pages: set[int] = set()
        self.invalidations = 0
        self.twin_creations = 0
        #: Optional observer of state-machine transitions (the coherence
        #: sanitizer's tracer hook); None keeps transitions free.
        self.on_transition: Optional[TransitionFn] = None
        #: Sets fed every page whose entry (state, version) or frame
        #: (:meth:`mark_dirty`) is written: an incremental crash
        #: snapshot registers one and re-reads only what lands in it.
        #: ``home`` is fixed at construction and never written.
        self.watchers: List[set[int]] = []

    # ------------------------------------------------------------------
    def entry(self, page: int) -> PageEntry:
        """The entry for ``page`` (raises on out-of-range)."""
        if not (0 <= page < self.npages):
            raise PageError(f"page {page} out of range [0, {self.npages})")
        return self._entries[page]

    def states(self) -> Dict[int, Tuple[PageState, Any]]:
        """``page -> (state, version)`` of every page, in one pass (snapshots)."""
        return {e.page: (e.state, e.version) for e in self._entries}

    def is_home(self, page: int) -> bool:
        """Whether this node is the home of ``page``."""
        return self.entry(page).home == self.node

    def home_pages(self) -> Iterator[int]:
        """All pages homed at this node."""
        return (p for p in range(self.npages) if self._entries[p].home == self.node)

    # ------------------------------------------------------------------
    def set_state(self, page: int, state: PageState, reason: str = "") -> PageEntry:
        """Move ``page`` to ``state``, notifying :attr:`on_transition`.

        All protocol-level state changes funnel through here so the
        state machine is observable; a same-state call is a no-op (no
        event fires).
        """
        entry = self.entry(page)
        old = entry.state
        if old is not state:
            entry.state = state
            for watched in self.watchers:
                watched.add(page)
            if self.on_transition is not None:
                self.on_transition(page, old, state, reason)
        return entry

    def set_version(self, page: int, version: Any) -> None:
        """Stamp ``page`` with a new coherence version.

        Every change of a frame's contents by the protocol (fetch, diff
        application, seal) comes with one, which is what lets
        :attr:`watchers` stand for "the frame may have changed".
        """
        self.entry(page).version = version
        for watched in self.watchers:
            watched.add(page)

    def invalidate(self, page: int) -> bool:
        """Drop the local copy of a non-home page; returns True if it was valid.

        Home copies are never invalidated (they are the repository of
        updates); attempting to is a protocol bug.
        """
        entry = self.entry(page)
        if entry.home == self.node:
            raise PageError(f"node {self.node} cannot invalidate its home page {page}")
        was_valid = entry.state is not PageState.INVALID
        self.set_state(page, PageState.INVALID, "invalidate")
        self._retire_twin(entry)
        if was_valid:
            self.invalidations += 1
        return was_valid

    def make_twin(self, page: int, contents: np.ndarray) -> np.ndarray:
        """Record a pristine copy of ``page`` before its first write.

        ``contents`` is the node's current copy; the twin owns its data.
        """
        entry = self.entry(page)
        if entry.twin is not None:
            raise PageError(f"page {page} already has a twin")
        if self.pool is not None:
            entry.twin = self.pool.take_copy(contents)
        else:
            entry.twin = contents.copy()
        self.twin_creations += 1
        return entry.twin

    def drop_twin(self, page: int) -> None:
        """Discard the twin after its diff has been created.

        The buffer goes back to the pool: by this point the diff owns
        copies of every word it kept, and nothing else references the
        twin (served page replies copy out of it).
        """
        self._retire_twin(self.entry(page))

    def _retire_twin(self, entry: PageEntry) -> None:
        if entry.twin is not None and self.pool is not None:
            self.pool.give(entry.twin)
        entry.twin = None

    def mark_dirty(self, page: int) -> None:
        """Add ``page`` to the current interval's dirty set."""
        self.dirty_pages.add(page)
        for watched in self.watchers:
            watched.add(page)

    def take_dirty(self) -> List[int]:
        """Return and clear the dirty set (called at release/barrier)."""
        pages = sorted(self.dirty_pages)
        self.dirty_pages.clear()
        return pages
