"""Adaptive home migration (extension).

Home-based LRC's costs hinge on home placement: a write to a remotely
homed page pays twin + diff + flush, while a home write is free.  Later
systems (the migrating-home protocol of Cheung et al., ORION's adaptive
homes) therefore *move* a page's home toward its writer.  This module
implements the cleanest sound variant:

**barrier-synchronised sole-writer migration** -- at every barrier,
each home proposes to hand off any of its pages that exactly one remote
node wrote during the phase; the proposals ride the check-in messages,
and the barrier release broadcasts the accepted list, so every node
updates its home table at a point of global quiescence (HLRC
acknowledges all diffs before check-in, so no coherence message is in
flight across a barrier).

Why the hand-off is a pure metadata switch: the sole writer's copy is
*bitwise equal* to the home copy -- both are ``base-at-fetch +`` the
writer's own modifications, and nobody else wrote the page since the
writer's fetch (sole writer).  No page content moves.  The old home's
copy remains valid as an ordinary cached copy; the version-dominance
check in notice application protects it from self-invalidation
naturally.

Scope: failure-free only (``none`` logging).  Combining adaptive homes
with coherence-centric recovery would need the reconstruction protocol
to track home *histories*; the paper's protocol assumes static homes,
and so does our recovery.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Set, Tuple

from ..errors import ProtocolError
from .hlrc import HlrcNode
from .interval import IntervalRecord, VectorClock
from .messages import BarrierCheckin, DiffBatch

__all__ = ["MigratingHlrcNode"]

#: ``(page, new_home)`` hand-off decisions.
Migrations = List[Tuple[int, int]]


class MigratingHlrcNode(HlrcNode):
    """HLRC with barrier-synchronised sole-writer home migration."""

    def __init__(self, system, node_id, hooks=None):
        super().__init__(system, node_id, hooks)
        if self.hooks.name != "none":
            raise ProtocolError(
                "home migration supports only the 'none' logging protocol "
                "(recovery assumes static homes, as in the paper)"
            )
        #: Writers seen per home page since the last barrier completion.
        #: At completion this set is *complete* for the phase (diffs are
        #: acknowledged before their senders check in, and the release
        #: follows every check-in), so it rotates into
        #: :attr:`last_phase_writers`, from which the next barrier's
        #: proposals are built.  The barrier manager then validates each
        #: proposal against the in-between episode's interval records.
        self.phase_writers: Dict[int, Set[int]] = {}
        self.last_phase_writers: Dict[int, Set[int]] = {}
        #: Proposals received with this episode's check-ins (manager only).
        self._pending_migrations: Migrations = []

    # ------------------------------------------------------------------
    # track who writes each home page during the phase
    # ------------------------------------------------------------------
    def _apply_incoming_diffs(self, batch: DiffBatch) -> Generator[Any, Any, None]:
        for d in batch.diffs:
            self.phase_writers.setdefault(d.page, set()).add(batch.writer)
        yield from super()._apply_incoming_diffs(batch)

    def _end_interval(self) -> Generator[Any, Any, None]:
        for p in self.pagetable.dirty_pages:
            if self.pagetable.entry(p).home == self.id:
                self.phase_writers.setdefault(p, set()).add(self.id)
        yield from super()._end_interval()

    def _propose_migrations(self) -> Migrations:
        out: Migrations = []
        for page, writers in self.last_phase_writers.items():
            if self.pagetable.entry(page).home != self.id:
                continue  # migrated away earlier; stale tracking entry
            if len(writers) == 1:
                (writer,) = writers
                if writer != self.id:
                    out.append((page, writer))
        self.last_phase_writers = {}
        return out

    def _apply_migrations(self, migrations: Migrations) -> None:
        # the release follows every check-in, so the phase's writer sets
        # are complete: rotate them into the next barrier's proposals
        self.last_phase_writers = self.phase_writers
        self.phase_writers = {}
        for page, new_home in migrations:
            entry = self.pagetable.entry(page)
            self.pagetable.set_home(page, new_home)
            if new_home == self.id:
                # the sole writer's copy *is* the home copy (see module
                # docstring); it only needs the home bookkeeping
                self.home_events.setdefault(page, [])
                if entry.version is None:  # pragma: no cover - defensive
                    self.pagetable.set_version(page, VectorClock.zero(self.cfg.num_nodes))
                self.stats.count("homes_gained")
            self.stats.count("migrations_seen")

    # ------------------------------------------------------------------
    # barrier flow: proposals ride check-ins, decisions ride releases
    # (the release loop itself is HlrcNode's)
    # ------------------------------------------------------------------
    def _manage_barrier_checkin(self, msg: BarrierCheckin) -> None:
        self._pending_migrations.extend(msg.migrations)
        super()._manage_barrier_checkin(msg)

    def _decide_migrations(self, episode_records: List[IntervalRecord]) -> Migrations:
        proposals = self._pending_migrations + self._propose_migrations()
        self._pending_migrations = []
        # validate against the episode's COMPLETE write history: every
        # check-in has arrived, and the table was pruned to the previous
        # barrier's cut, so the barrier's batch names every page written
        # this phase.  A proposal survives only if nobody but the
        # prospective new home wrote the page -- this closes the race
        # where a diff was still in flight when the old home proposed.
        migrations = []
        for page, new_home in proposals:
            writers = {r.node for r in episode_records if page in r.pages}
            # the proposal says "exactly `new_home` wrote the page in the
            # previous (completed) phase"; accepting additionally requires
            # that nobody *else* wrote it in the episode since -- then the
            # writer's copy is the home copy, byte for byte
            if writers <= {new_home}:
                migrations.append((page, new_home))
            else:
                self.stats.count("migrations_rejected")
        return migrations
