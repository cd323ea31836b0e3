"""Application framework for the evaluation workloads.

The paper evaluates four parallel applications (Table 1): 3D-FFT and MG
from the NAS benchmarks, Shallow (the NCAR weather kernel), and Water
(SPLASH molecular dynamics).  Each is implemented here as a real
numerical kernel running SPMD over the DSM API: the arithmetic is
performed on NumPy views of the shared pages, access annotations stand
in for VM traps, and analytic flop counts charge the simulated clock.

:class:`DsmApplication` fixes the interface the system/harness expects;
:func:`block_rows` / :func:`owner_homes` provide the standard row-block
decomposition and writer-aligned home assignment the real applications
used; :func:`gather_global` reassembles the authoritative global array
from home copies for verification.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, Dict, Generator, List, Optional, Tuple

import numpy as np

from ..dsm.home import block_homes
from ..errors import ApplicationError
from ..memory import SharedAddressSpace

if TYPE_CHECKING:  # pragma: no cover
    from ..dsm.api import Dsm
    from ..dsm.system import DsmSystem

__all__ = [
    "DsmApplication",
    "block_rows",
    "owner_homes",
    "gather_global",
    "APP_REGISTRY",
    "register_app",
    "make_app",
]


def block_rows(n_rows: int, nprocs: int, rank: int) -> Tuple[int, int]:
    """Row range ``[lo, hi)`` of ``rank`` under block distribution."""
    per = -(-n_rows // nprocs)
    lo = min(rank * per, n_rows)
    hi = min(lo + per, n_rows)
    return lo, hi


def owner_homes(
    space: SharedAddressSpace, nprocs: int, owners: Dict[str, List[int]]
) -> List[int]:
    """Home assignment aligning each variable's pages with its owners.

    ``owners[name]`` gives a per-page owner list for that variable (as
    long as ``space.pages_of(var)``); unlisted variables fall back to a
    block distribution of their pages.  Real HLRC applications co-locate
    homes with the rank that writes each partition, which is what makes
    home writes free.
    """
    homes = [0] * space.npages
    for var in space.variables:
        pages = list(space.pages_of(var))
        if var.name in owners:
            per_page = owners[var.name]
            if len(per_page) != len(pages):
                raise ApplicationError(
                    f"owner map for {var.name!r} covers {len(per_page)} pages,"
                    f" variable spans {len(pages)}"
                )
            for p, h in zip(pages, per_page):
                homes[p] = h
        else:
            blocks = block_homes(len(pages), nprocs)
            for p, h in zip(pages, blocks):
                homes[p] = h
    return homes


def gather_global(system: "DsmSystem", name: str) -> np.ndarray:
    """Reassemble a shared variable's authoritative global contents.

    After a final barrier every home copy is up to date (all diffs
    flushed and acknowledged), so home pages are stitched together.
    """
    var = system.space.var(name)
    page_size = system.config.page_size
    out = np.empty(var.nbytes, dtype=np.uint8)
    for page in system.space.pages_of(var):
        frame = system.nodes[system.homes[page]].memory.page_bytes(page)
        page_lo = page * page_size
        lo = max(page_lo, var.offset)
        hi = min(page_lo + page_size, var.end)
        out[lo - var.offset : hi - var.offset] = frame[lo - page_lo : hi - page_lo]
    return out.view(var.dtype).reshape(var.shape)


class DsmApplication(abc.ABC):
    """One evaluation workload.

    Subclasses implement :meth:`allocate` (declare shared variables,
    optionally with deterministic initial contents), :meth:`program`
    (the per-rank SPMD generator), and :meth:`verify` (compare the
    final shared state against a sequential reference).  They may
    override :meth:`homes` to align page homes with their data
    partition, and should fill :attr:`characteristics` for Table 1.
    """

    #: Short name used by the registry and the harness tables.
    name: str = "app"
    #: Table 1 fields: data-set description and synchronisation types.
    data_set: str = ""
    synchronization: str = "barriers"
    iterations: int = 0

    @abc.abstractmethod
    def allocate(self, space: SharedAddressSpace, nprocs: int) -> None:
        """Declare every shared variable (with deterministic init data)."""

    def homes(self, space: SharedAddressSpace, nprocs: int) -> Optional[List[int]]:
        """Per-page home assignment; None selects round-robin."""
        return None

    @abc.abstractmethod
    def program(self, dsm: "Dsm") -> Generator[Any, Any, None]:
        """The SPMD program executed by every rank."""

    def verify(self, system: "DsmSystem") -> bool:
        """Check the final shared state against a sequential reference."""
        return True

    def characteristics(self) -> Dict[str, str]:
        """The application's Table 1 row."""
        return {
            "program": self.name,
            "data_set": self.data_set,
            "synchronization": self.synchronization,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


#: name -> factory(paper_scale: bool) for the harness CLI.
APP_REGISTRY: Dict[str, Any] = {}


def register_app(name: str):
    """Class decorator adding an application to the registry."""

    def deco(cls):
        APP_REGISTRY[name] = cls
        return cls

    return deco


def make_app(name: str, paper_scale: bool = False, **kwargs) -> DsmApplication:
    """Instantiate a registered application by name.

    ``paper_scale=True`` selects the dataset sizes of the paper's
    Table 1; the default sizes are scaled down so simulations complete
    in seconds (see EXPERIMENTS.md for the mapping).
    """
    try:
        cls = APP_REGISTRY[name]
    except KeyError:
        raise ApplicationError(
            f"unknown application {name!r}; registered: {sorted(APP_REGISTRY)}"
        ) from None
    return cls(paper_scale=paper_scale, **kwargs)
