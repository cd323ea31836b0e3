"""Differential oracle: the crash snapshot against a whole-image reference.

A second probe runs right after the ``CrashProbe``s at every seal of
every rank, reads the node whole (``reference_snapshot.py``: full image
copy, scan of every page) and requires the probes' snapshots to say the
same on everything a recovery may be checked against: ``vt``,
``interval_index``, the ``(state, version)`` of every page and the bytes
of every *live* frame (valid copy or home page; dead frames carry no
meaning).  Both probe modes are checked in one run -- the overwritten
snapshot at the seal, the ``capture_all`` one at the seal and again
after the run, when every later seal has had its chance to disturb it.

The matrix is the paper's apps at test scale under every logging scheme
with a log, plus the protocol corners the apps do not reach: the lock
program that provokes an early diff (a dirty page invalidated
mid-interval), alone and with the page read back or written again in
the same interval.
"""

import numpy as np
import pytest

from repro import ClusterConfig, DsmSystem, make_app, make_hooks_factory
from repro.analysis.programs import early_diff, program_system
from repro.core import CrashProbe
from repro.errors import SimulationError
from repro.harness.scales import app_kwargs
from repro.memory import PageTable
from tests.core.reference_snapshot import ReferenceSnapshot

APPS = ("sor", "fft3d", "mg", "shallow", "water")
SCHEMES = ("ccl", "ml", "adaptive", "failover")


def _differences(snapshot, ref, page_size):
    """Where ``snapshot`` departs from the reference; empty when it agrees."""
    out = [
        f"{field}: {getattr(snapshot, field)} != {getattr(ref, field)}"
        for field in ("node_id", "seal_count", "time", "vt", "interval_index")
        if getattr(snapshot, field) != getattr(ref, field)
    ]
    if snapshot.page_states != ref.page_states:
        out.append("page_states: " + ", ".join(
            f"page {p} {snapshot.page_states.get(p)} != {want}"
            for p, want in ref.page_states.items()
            if snapshot.page_states.get(p) != want
        ))
    if set(snapshot.frames) != ref.live:
        out.append(f"frames kept for {sorted(set(snapshot.frames) ^ ref.live)} "
                   "disagree with liveness")
    out += [
        f"page {p}: frame bytes differ"
        for p in sorted(ref.live & set(snapshot.frames))
        if not np.array_equal(snapshot.frames[p], ref.frame(p, page_size))
    ]
    out += [
        f"page {p}: frame is writeable"
        for p, frame in snapshot.frames.items() if frame.flags.writeable
    ]
    return out


class SealOracle:
    """Probe that checks the crash probes of every rank at every seal."""

    def __init__(self, system):
        self.page_size = system.config.page_size
        ranks = range(system.config.num_nodes)
        self.overwriting = {r: CrashProbe(r) for r in ranks}
        self.retaining = {r: CrashProbe(r, capture_all=True) for r in ranks}
        for probe in (*self.overwriting.values(), *self.retaining.values()):
            system.add_probe(probe)
        system.add_probe(self)  # after the crash probes, at each seal
        self.references = {}

    def __call__(self, node, seal_count):
        ref = self.references[node.id, seal_count] = ReferenceSnapshot(
            node, seal_count)
        for mode, snapshot in (
            ("overwritten", self.overwriting[node.id].snapshot),
            ("retained", self.retaining[node.id].snapshots[seal_count]),
        ):
            diffs = _differences(snapshot, ref, self.page_size)
            assert not diffs, (
                f"rank {node.id} seal {seal_count}: the {mode} snapshot "
                f"departs from the whole-image reference: {diffs[:4]}"
            )

    def check_retained(self):
        """After the run: no later seal disturbed a retained snapshot."""
        assert self.references, "no rank ever sealed"
        for (rank, seal), ref in self.references.items():
            probe = self.retaining[rank]
            diffs = _differences(probe.snapshots[seal], ref, self.page_size)
            assert not diffs, (
                f"rank {rank}: the retained snapshot of seal {seal} changed "
                f"after it was taken: {diffs[:4]}"
            )
            assert probe.snapshot is probe.snapshots[max(probe.snapshots)]
        return len(self.references)


def _checked(system):
    """Run ``system`` under the oracle; returns the seals it checked."""
    oracle = SealOracle(system)
    assert system.run().completed
    return oracle.check_retained()


def _app_system(app, scheme):
    return DsmSystem(
        make_app(app, **app_kwargs(app, "test")),
        ClusterConfig.ultra5(num_nodes=4),
        make_hooks_factory(scheme), protocol_name=scheme,
        replication=2 if scheme == "failover" else 1,
    )


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("app", APPS)
def test_snapshot_equals_reference_at_every_seal(app, scheme):
    assert _checked(_app_system(app, scheme)) >= 8


def test_a_version_written_behind_the_watchers_back_is_caught(monkeypatch):
    """Mutation guard: the oracle must notice a frame the page table
    changed (a diff applied at the home) without reporting the page."""

    def set_version_unwatched(self, page, version):
        self.entry(page).version = version

    monkeypatch.setattr(PageTable, "set_version", set_version_unwatched)
    # the probe runs inside a simulated process, which wraps what it raises
    with pytest.raises(SimulationError, match="departs from the whole-image"):
        _checked(_app_system("shallow", "ccl"))


def test_early_diff_invalidates_a_dirty_page_mid_interval():
    system = program_system(early_diff())
    assert _checked(system) >= 3
    assert system.nodes[1].stats.counters["early_diffs"] == 1


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("reaccess", ["reread", "rewrite"])
def test_early_diffed_page_touched_again_in_the_same_interval(reaccess, scheme):
    system = program_system(early_diff(reaccess), scheme,
                            replication=2 if scheme == "failover" else 1)
    assert _checked(system) >= 5
    assert system.nodes[1].stats.counters["early_diffs"] == 1
