"""Node-local memory images and NumPy views of shared variables.

Every node maps the full range of the shared segment
(:class:`LocalMemory`), exactly as a page-based DSM maps the same
virtual range on every host; a frame materialises when it becomes valid.  :class:`SharedArray` binds a
:class:`~repro.memory.addrspace.SharedVar` to one node's image and
exposes it as a NumPy array, plus the element-range -> page-set mapping
the access-annotation API needs.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from ..errors import MemoryLayoutError
from .addrspace import SharedAddressSpace, SharedVar

__all__ = ["LocalMemory", "SharedArray", "pages_in_byte_range"]


def pages_in_byte_range(byte_lo: int, byte_hi: int, page_size: int) -> range:
    """Page ids covering global bytes ``[byte_lo, byte_hi)``."""
    if byte_hi <= byte_lo:
        return range(0)
    return range(byte_lo // page_size, (byte_hi - 1) // page_size + 1)


class LocalMemory:
    """One node's image of the shared segment.

    The image spans the whole range, but only the ``live`` pages -- the
    frames that start out valid -- are copied from the replicated
    initial contents (:meth:`SharedAddressSpace.initial_image`, which
    doubles as the initial checkpoint recovery rolls back to).  The
    rest stay the untouched zero pages of ``np.zeros``, which the OS
    does not back until the protocol makes them valid by writing them.
    ``live=None`` starts every frame valid.
    """

    def __init__(self, space: SharedAddressSpace, live: Optional[Iterable[int]] = None):
        image = space.initial_image()
        self.space = space
        self.page_size = space.page_size
        if live is None:
            self.buffer = image.copy()
        else:
            pages = list(live)
            self.buffer = np.zeros(space.total_bytes, dtype=np.uint8)
            self.buffer.reshape(-1, self.page_size)[pages] = image.reshape(
                -1, self.page_size
            )[pages]

    # ------------------------------------------------------------------
    def page_bytes(self, page: int) -> np.ndarray:
        """Mutable uint8 view of one page."""
        if not (0 <= page < self.space.npages):
            raise MemoryLayoutError(f"page {page} out of range")
        lo = page * self.page_size
        return self.buffer[lo : lo + self.page_size]

    def view(self, var: SharedVar) -> np.ndarray:
        """Typed, shaped, mutable view of a shared variable."""
        return self._var_bytes(var).view(var.dtype).reshape(var.shape)

    def snapshot(self) -> np.ndarray:
        """A copy of the whole image (used by checkpoints and tests)."""
        return self.buffer.copy()

    def restore(self, image: np.ndarray) -> None:
        """Overwrite the image (checkpoint restoration)."""
        if image.shape != self.buffer.shape:
            raise MemoryLayoutError("checkpoint image has wrong size")
        self.buffer[:] = image

    # ------------------------------------------------------------------
    def _var_bytes(self, var: SharedVar) -> np.ndarray:
        return self.buffer[var.offset : var.end]


class SharedArray:
    """A shared variable bound to one node's local memory."""

    def __init__(self, memory: LocalMemory, var: SharedVar):
        self.memory = memory
        self.var = var
        #: The live NumPy view; mutations hit the node's page frames.
        self.array = memory.view(var)

    @property
    def name(self) -> str:
        """Name of the underlying allocation."""
        return self.var.name

    @property
    def flat_size(self) -> int:
        """Total element count."""
        return self.var.count

    def pages_for_elements(self, start: int, stop: int) -> range:
        """Page ids covering flat elements ``[start, stop)``."""
        lo, hi = self.var.byte_range(start, stop)
        return pages_in_byte_range(lo, hi, self.memory.page_size)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SharedArray {self.var.name} {self.var.shape} {self.var.dtype}>"
