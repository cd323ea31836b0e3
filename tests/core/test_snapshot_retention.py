"""Retention and work-count guard: host memory follows the live pages.

The companion of ``tests/dsm/test_diff_retention.py`` for node images
and crash snapshots.  Resident bytes depend on the allocator; which
frames a node materialises, which arrays a snapshot keeps alive and how
many frames a seal copies do not.  A node image spans the whole range
but starts with its valid frames only; a ``FailureSnapshot`` keeps one
page-sized array per *live* page (valid copy or home page) and nothing
image-sized; a seal copies exactly the live pages the page table
reported as written since the last one, and under ``capture_all``
consecutive snapshots share every frame that was not.  Together that was
184 MiB of ``recovery8``'s 350 MB peak RSS (96 node images + 96 snapshot
images, a quarter of their pages live) and 3.4 GB of memcpy in its
set-up.
"""

import numpy as np

from repro import ClusterConfig, DsmSystem, make_app, make_hooks_factory
from repro.core import CrashProbe
from repro.harness.scales import app_kwargs
from repro.memory import PageState
from tests.memory.test_run_table import array_bytes

NODES = 4


def _system(**kwargs):
    kwargs.setdefault("hooks_factory", make_hooks_factory("ccl"))
    return DsmSystem(
        make_app("shallow", **app_kwargs("shallow", "test")),
        ClusterConfig.ultra5(num_nodes=NODES), **kwargs,
    )


def _live(node):
    return {
        e.page for e in map(node.pagetable.entry, range(node.pagetable.npages))
        if e.state is not PageState.INVALID or e.home == node.id
    }


def test_a_fresh_node_image_materialises_only_the_frames_that_start_valid():
    system = _system()
    page_size = system.config.page_size
    initial = system.space.initial_image().reshape(-1, page_size)
    assert initial.any(), "the app no longer has initial contents"
    assert not system.space.initial_image().flags.writeable
    for node in system.nodes:
        frames = node.memory.buffer.reshape(-1, page_size)
        home = sorted(node.pagetable.home_pages())
        rest = sorted(set(range(system.space.npages)) - set(home))
        assert home and rest
        assert np.array_equal(frames[home], initial[home])
        assert not frames[rest].any(), (
            f"node {node.id} copied initial contents into frames it must "
            "fetch before it may read them"
        )


class SealAccountant:
    """Probe after the crash probes: what each seal copied and kept."""

    def __init__(self, system, capture_all):
        self.probes = [CrashProbe(r, capture_all=capture_all) for r in range(NODES)]
        for probe in self.probes:
            system.add_probe(probe)
        system.add_probe(self)
        #: Our own watch sets, fed by the page tables like the probes'.
        self.touched = [set() for _ in range(NODES)]
        for node, pages in zip(system.nodes, self.touched):
            node.pagetable.watchers.append(pages)
        self.previous = [{} for _ in range(NODES)]
        self.seals = 0
        self.expected_buffers = [0] * NODES
        self.page_size = system.config.page_size
        self.image_bytes = system.space.total_bytes

    def __call__(self, node, seal_count):
        self.seals += 1
        snapshot = self.probes[node.id].snapshot
        live = _live(node)
        touched, previous = self.touched[node.id], self.previous[node.id]
        where = f"rank {node.id} seal {seal_count}"
        # exactly the live frames; every array byte the snapshot keeps
        # alive (a view counts as the buffer it views) is one of theirs
        assert set(snapshot.frames) == live, where
        held = array_bytes(vars(snapshot))
        assert held == len(live) * self.page_size < self.image_bytes, (
            f"{where}: {held} array bytes retained for {len(live)} live pages"
        )
        # the seal copied the watched live pages and shares the rest
        want = live if seal_count == 1 else live & touched
        copied = {p for p, f in snapshot.frames.items() if previous.get(p) is not f}
        assert copied == want, (
            f"{where}: copied {len(copied)} frames for {len(want)} live pages "
            f"written since the last seal (of {len(live)} live) -- is every "
            "page rescanned at every seal again?"
        )
        for p in live - copied:
            assert np.shares_memory(snapshot.frames[p], previous[p]), where
        self.expected_buffers[node.id] += len(want)
        self.previous[node.id] = dict(snapshot.frames)
        touched.clear()


def test_a_seal_copies_the_watched_live_frames_and_nothing_image_sized():
    system = _system()
    accountant = SealAccountant(system, capture_all=False)
    assert system.run().completed
    assert accountant.seals >= 8 * NODES


def test_capture_all_snapshots_share_every_frame_no_seal_rewrote():
    system = _system()
    accountant = SealAccountant(system, capture_all=True)
    assert system.run().completed
    for probe, budget in zip(accountant.probes, accountant.expected_buffers):
        assert len(probe.snapshots) >= 8
        buffers = {
            id(frame) for snapshot in probe.snapshots.values()
            for frame in snapshot.frames.values()
        }
        kept = sum(len(s.frames) for s in probe.snapshots.values())
        assert len(buffers) <= budget < kept, (
            f"rank {probe.node}: {len(probe.snapshots)} retained snapshots "
            f"name {kept} frames in {len(buffers)} distinct buffers; initial "
            f"live + watched pages allow {budget}"
        )
