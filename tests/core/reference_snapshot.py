"""Reference crash snapshot: the whole image plus a scan of every page.

This is ``FailureSnapshot`` as it stood before it followed the live
pages -- a full copy of the node's image and one pass over every
``PageEntry`` -- kept as the oracle ``test_snapshot_incremental.py``
checks the incremental snapshot against at every seal.  It is slow and
large on purpose: nothing here depends on what the page table reported
as touched.
"""

from repro.memory import PageState


class ReferenceSnapshot:
    """A node's externally-visible state, read whole, right now."""

    def __init__(self, node, seal_count):
        self.node_id = node.id
        self.seal_count = seal_count
        self.time = node.sim.now
        self.memory = node.memory.buffer.copy()
        self.vt = node.vt
        self.interval_index = node.interval_index
        #: page -> (state, version), every page.
        self.page_states = node.pagetable.states()
        #: Pages whose frame means something: valid copies and home pages.
        self.live = {
            p for p, (state, _version) in self.page_states.items()
            if state is not PageState.INVALID
            or node.pagetable.entry(p).home == node.id
        }

    def frame(self, page, page_size):
        return self.memory[page * page_size:(page + 1) * page_size]
