"""Data-race-free SPMD test programs as values: presets and a generator.

A :class:`Program` lists each rank's operations on one shared array
``x``; :class:`ProgramApp` runs it and raises ``ApplicationError`` when
a checked read departs from the sequentially consistent (SC) reference.
:data:`PRESETS` and :func:`early_diff` are hand-made programs,
:func:`generate` draws one from a seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

import numpy as np

from ..config import ClusterConfig
from ..dsm.system import DsmSystem
from ..errors import ApplicationError

__all__ = ["PAGE_SIZE", "PRESETS", "Program", "ProgramApp", "early_diff",
           "generate", "program_system"]

PAGE_SIZE = 256
_WORDS = PAGE_SIZE // 4  # int32 words per page

#: One operation, ``(kind, *args)``: ``("compute", flops)``,
#: ``("acquire", lock)``, ``("release", lock)``, ``("barrier", id)``,
#: ``("write" | "add", lo, hi, step, value)`` -- a write of ``x[lo:hi]``
#: that sets (or adds ``value`` to) ``x[lo:hi:step]`` -- and
#: ``("read", lo, hi, checked)``.
Op = Tuple[Any, ...]


@dataclass(frozen=True)
class Program:
    """Per-rank op lists over ``pages`` pages of one shared array."""

    ranks: Tuple[Tuple[Op, ...], ...]
    pages: int
    #: Home rank of each page (None: round-robin).
    homes: Optional[Tuple[int, ...]] = None
    #: Every node checkpoints every this many seals (None: never).
    checkpoint_every: Optional[int] = None
    dtype: str = "int32"
    name: str = "program"

    @property
    def nprocs(self) -> int:
        return len(self.ranks)

    @property
    def words(self) -> int:
        return self.pages * PAGE_SIZE // np.dtype(self.dtype).itemsize

    def reference(self) -> Tuple[Dict[Tuple[int, int], np.ndarray], np.ndarray]:
        """What each checked read sees, keyed ``(rank, op index)``, and
        the final ``x``: one barrier phase at a time, rank after rank.
        That is an SC order (locks are released before each barrier), and
        every SC order agrees with it on the checked reads (none reads a
        word another rank changes in the same phase)."""
        x = np.zeros(self.words, self.dtype)
        seen: Dict[Tuple[int, int], np.ndarray] = {}
        pcs = [0] * self.nprocs
        while any(pc < len(ops) for pc, ops in zip(pcs, self.ranks)):
            for rank, ops in enumerate(self.ranks):
                for i in range(pcs[rank], len(ops)):
                    pcs[rank] = i + 1
                    kind, *args = ops[i]
                    if kind == "barrier":
                        break
                    if kind in ("write", "add"):
                        _store(x, kind, *args)
                    elif kind == "read" and args[2]:
                        seen[rank, i] = x[args[0]:args[1]].copy()
        return seen, x


def _store(x: np.ndarray, kind: str, lo: int, hi: int, step: int,
           value: int) -> None:
    if kind == "write":
        x[lo:hi:step] = value
    else:
        x[lo:hi:step] += value


class ProgramApp:
    """Runs a :class:`Program`, checking every checked read against SC."""

    def __init__(self, plan: Program):
        self.plan = plan
        self.name = plan.name
        self.expected, self.final = plan.reference()

    def allocate(self, space: Any, nprocs: int) -> None:
        n, dtype = self.plan.words, np.dtype(self.plan.dtype)
        space.allocate("x", (n,), dtype, init=np.zeros(n, dtype))

    def homes(self, space: Any, nprocs: int) -> Optional[List[int]]:
        return None if self.plan.homes is None else list(self.plan.homes)

    def program(self, dsm: Any) -> Generator[Any, Any, None]:
        for i, (kind, *args) in enumerate(self.plan.ranks[dsm.rank]):
            if kind in ("write", "add"):
                yield from dsm.write("x", args[0], args[1])
                _store(dsm.arr("x"), kind, *args)
            elif kind == "read":
                lo, hi, _checked = args
                yield from dsm.read("x", lo, hi)
                want = self.expected.get((dsm.rank, i))
                seen = dsm.arr("x")[lo:hi]
                if want is not None and not np.array_equal(seen, want):
                    raise ApplicationError(
                        f"{self.name} rank {dsm.rank} op {i}: x[{lo}:{hi}] "
                        f"== {seen.tolist()}, SC reference {want.tolist()}")
            else:  # compute, acquire, release, barrier
                yield from getattr(dsm, kind)(*args)


def program_system(plan: Program, protocol: str = "ccl",
                   hooks_factory: Optional[Callable[[int], Any]] = None,
                   **system_kwargs: Any) -> DsmSystem:
    """``plan`` on a fresh cluster under ``protocol``, with its checkpoints."""
    from ..core.checkpoint import Checkpointer
    from ..core.logging_base import make_hooks_factory

    system = DsmSystem(
        ProgramApp(plan),
        ClusterConfig.ultra5(num_nodes=plan.nprocs, page_size=PAGE_SIZE),
        hooks_factory or make_hooks_factory(protocol),
        protocol_name=protocol, **system_kwargs)
    if plan.checkpoint_every:
        for node in system.nodes:
            node.checkpointer = Checkpointer(plan.checkpoint_every)
    return system


def _lock(nprocs: int, pages: int) -> Program:
    """Each rank sets its word of every page under lock 0, then reads all."""
    def rank(r: int) -> Tuple[Op, ...]:
        ops: List[Op] = []
        for word in range(r, pages * _WORDS, _WORDS):
            ops += [("acquire", 0), ("write", word, word + 1, 1, r + 1),
                    ("release", 0)]
        return (*ops, ("barrier", 0), ("read", 0, pages * _WORDS, True))
    return Program(tuple(rank(r) for r in range(nprocs)), pages, name="lock")


def _barrier(nprocs: int, pages: int) -> Program:
    """Disjoint slices written, a barrier, then each rank reads its left
    neighbour's slices: the write-notice path."""
    stride = max(1, _WORDS // nprocs)

    def rank(r: int) -> Tuple[Op, ...]:
        mine = [p * _WORDS + r * stride for p in range(pages)]
        left = [p * _WORDS + (r - 1) % nprocs * stride for p in range(pages)]
        return (*[("write", lo, lo + stride, 1, r + 1) for lo in mine],
                ("barrier", 0),
                *[("read", lo, lo + stride, True) for lo in left],
                ("barrier", 1))
    return Program(tuple(rank(r) for r in range(nprocs)), pages, name="barrier")


#: The model checker's bounded programs, by ``--program`` name.
PRESETS: Dict[str, Callable[[int, int], Program]] = {
    "lock": _lock, "barrier": _barrier}


def early_diff(reaccess: str = "none") -> Program:
    """Rank 1 dirties a page, then takes the lock rank 0 wrote the same
    page under: the write notice hits a dirty page (an early diff).
    Under the lock rank 1 then touches the page again (``reread`` or
    ``rewrite``) in the interval that flushed it, or not (``none``)."""
    touch: Dict[str, Tuple[Op, ...]] = {
        "none": (), "reread": (("read", 0, 4, False),),
        "rewrite": (("write", 40, 42, 1, 3),)}
    return Program((
        (("acquire", 1), ("write", 0, 4, 1, 1), ("release", 1), ("barrier", 0)),
        (("compute", 0.01),
         *[("write", lo, lo + 3, 1, 2) for lo in (8, 20, 31)],  # three runs
         ("acquire", 1), *touch[reaccess], ("release", 1), ("barrier", 0)),
        (("barrier", 0),),
    ), 1, homes=(2,), name="early-diff")


def generate(seed: int) -> Program:
    """One data-race-free program drawn from ``seed``: 2-4 ranks, 1-4
    pages, 1-3 barrier phases, an optional checkpoint interval.  In a
    phase each chunk of ``x`` is written by one rank, added to under one
    lock, or idle.  A rank writes its chunks (maybe strided), adds under
    the lock and checks reads of its own and idle chunks: an unlocked
    block, a compute skew, 0-2 locked blocks.  Chunks of a page differ in
    role (false sharing), so a notice can hit a page the acquirer has
    dirty and the locked block may touch it again."""
    rng = np.random.default_rng(seed)

    def pick(options: Any) -> Any:
        return options[int(rng.integers(len(options)))]

    nprocs, pages = int(rng.integers(2, 5)), int(rng.integers(1, 5))
    dtype = pick(("int32", "int64"))
    per_page = PAGE_SIZE // np.dtype(dtype).itemsize
    chunk = per_page // pick((2, 4, 8))
    nlocks = int(rng.integers(1, 3))
    ranks: List[List[Op]] = [[] for _ in range(nprocs)]
    for _phase in range(int(rng.integers(1, 4))):
        # >= 0: the writing rank; -1: idle; -2 - L: a counter of lock L
        role = rng.integers(-1 - nlocks, nprocs, size=pages * per_page // chunk)
        for r, ops in enumerate(ranks):
            mine = [c for c, who in enumerate(role) if who == r]
            readable = [c for c, who in enumerate(role) if who in (r, -1)]

            def block(lock: Optional[int]) -> List[Op]:
                out: List[Op] = []
                counters = [] if lock is None else [
                    c for c, who in enumerate(role) if who == -2 - lock]
                for _ in range(int(rng.integers(1, 4))):
                    draw = rng.random()
                    if draw < 0.45 and mine:
                        kind, c, value = "write", pick(mine), int(rng.integers(1, 99))
                    elif draw < 0.7 and counters:
                        kind, c, value = "add", pick(counters), r + 1
                    elif readable:
                        c = pick(readable)
                        out.append(("read", c * chunk, (c + 1) * chunk, True))
                        continue
                    else:
                        continue
                    out.append((kind, c * chunk, (c + 1) * chunk,
                                pick((1, 1, 2, 3)), value))
                return out

            ops += block(None)
            ops.append(("compute", pick((0.0, 3e3, 3e4))))
            for _ in range(int(rng.integers(0, 3))):
                lock = int(rng.integers(nlocks))
                ops += [("acquire", lock), *block(lock), ("release", lock)]
            ops.append(("barrier", 0))
    words = pages * per_page
    return Program(
        tuple((*ops, ("read", 0, words, True)) for ops in ranks), pages,
        homes=tuple(int(h) for h in rng.integers(0, nprocs, size=pages)),
        checkpoint_every=pick((None, None, 1, 2)), dtype=dtype,
        name=f"gen:{seed}")
