"""The shared virtual address space.

Applications allocate named shared variables before the run starts
(mirroring ``Tmk_malloc`` at program initialisation).  Allocations are
page-aligned by default, which both matches how real DSM allocators lay
out large arrays and lets tests construct deliberate false sharing by
disabling alignment.

The space also records optional initial contents per variable.  All
nodes start with identical initial memory -- the paper's model, where
recovery begins "from the most recent checkpoint", and the experiments'
only checkpoint is the initial state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import MemoryLayoutError
from .bufferpool import BufferPool

__all__ = ["SharedVar", "SharedAddressSpace"]


@dataclass(frozen=True)
class SharedVar:
    """Descriptor of one shared allocation (not bound to any node)."""

    name: str
    offset: int
    nbytes: int
    shape: Tuple[int, ...]
    dtype: np.dtype
    #: Element count, derived once: every access annotation checks against it.
    count: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "count", int(math.prod(self.shape)))

    @property
    def end(self) -> int:
        """One past the last byte of the allocation."""
        return self.offset + self.nbytes

    def byte_range(self, start_elem: int, stop_elem: int) -> Tuple[int, int]:
        """Global byte range of flat elements ``[start_elem, stop_elem)``."""
        if not (0 <= start_elem <= stop_elem <= self.count):
            raise MemoryLayoutError(
                f"element range [{start_elem}, {stop_elem}) outside {self.name}"
                f" of {self.count} elements"
            )
        item = self.dtype.itemsize
        return (self.offset + start_elem * item, self.offset + stop_elem * item)


class SharedAddressSpace:
    """Allocator and layout registry for the global shared segment."""

    def __init__(self, page_size: int):
        if page_size <= 0:
            raise MemoryLayoutError(f"bad page size {page_size}")
        self.page_size = page_size
        self._vars: Dict[str, SharedVar] = {}
        self._initial: Dict[str, np.ndarray] = {}
        self._end = 0
        self._sealed = False
        self._pool: Optional[BufferPool] = None
        self._image: Optional[np.ndarray] = None

    @property
    def buffer_pool(self) -> BufferPool:
        """Shared page-buffer recycler for every node over this space.

        All page-sized scratch buffers (twins, replay frames) of one
        simulated cluster are interchangeable, so a single free list
        per address space captures the whole release-time churn.
        """
        if self._pool is None:
            self._pool = BufferPool(self.page_size)
        return self._pool

    # ------------------------------------------------------------------
    def allocate(
        self,
        name: str,
        shape: Tuple[int, ...] | int,
        dtype: object = np.float64,
        page_align: bool = True,
        init: Optional[np.ndarray] = None,
    ) -> SharedVar:
        """Reserve a shared variable; returns its descriptor.

        ``init`` supplies deterministic initial contents replicated to
        every node at startup (the initial checkpoint).  Allocation is
        forbidden once the space has been sealed by the DSM system.
        """
        if self._sealed:
            raise MemoryLayoutError("address space is sealed; allocate before running")
        if name in self._vars:
            raise MemoryLayoutError(f"shared variable {name!r} already allocated")
        if isinstance(shape, int):
            shape = (shape,)
        dt = np.dtype(dtype)
        nbytes = int(np.prod(shape)) * dt.itemsize
        if nbytes <= 0:
            raise MemoryLayoutError(f"empty allocation for {name!r}")
        offset = self._end
        if page_align:
            offset = -(-offset // self.page_size) * self.page_size
        var = SharedVar(name, offset, nbytes, tuple(shape), dt)
        self._vars[name] = var
        self._end = var.end
        if init is not None:
            arr = np.asarray(init, dtype=dt)
            if arr.shape != var.shape:
                raise MemoryLayoutError(
                    f"init shape {arr.shape} != allocation shape {var.shape}"
                )
            self._initial[name] = arr.copy()
        return var

    def seal(self) -> None:
        """Freeze the layout (called when the DSM system instantiates memory)."""
        self._sealed = True

    # ------------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        """Page-aligned size of the whole segment."""
        return self.npages * self.page_size

    @property
    def npages(self) -> int:
        """Number of pages spanned by all allocations."""
        return -(-self._end // self.page_size) if self._end else 0

    @property
    def variables(self) -> List[SharedVar]:
        """All allocations in layout order."""
        return sorted(self._vars.values(), key=lambda v: v.offset)

    def var(self, name: str) -> SharedVar:
        """Look up an allocation by name."""
        try:
            return self._vars[name]
        except KeyError:
            raise MemoryLayoutError(f"no shared variable named {name!r}") from None

    def initial_image(self) -> np.ndarray:
        """The whole segment's initial contents: built once, read-only.

        Every node image starts from it, and it is the initial
        checkpoint recovery rolls back to; asking for it seals the space.
        """
        if self._image is None:
            self.seal()
            image = np.zeros(self.total_bytes, dtype=np.uint8)
            for name, init in self._initial.items():
                var = self._vars[name]
                image[var.offset : var.end] = init.reshape(-1).view(np.uint8)
            self._initial.clear()  # the image holds the same bytes from here on
            image.flags.writeable = False
            self._image = image
        return self._image

    def pages_of(self, var: SharedVar) -> range:
        """All page ids the variable touches."""
        first = var.offset // self.page_size
        last = (var.end - 1) // self.page_size
        return range(first, last + 1)
