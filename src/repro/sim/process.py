"""Simulated processes: generators driven on the virtual clock.

A process body is a plain Python generator that ``yield``\\ s request
objects (:class:`~repro.sim.events.Timeout`,
:class:`~repro.sim.events.Signal`, :class:`~repro.sim.events.AllOf`, or
another :class:`SimProcess` to join).  Sub-operations compose with
``yield from``, which lets protocol code (page fetches, lock hand-offs,
disk flushes) run *inside* the simulated timeline of its caller --
exactly how the DSM layer is written.

The engine queues :class:`SimProcess` objects directly and steps their
generators inline in its drain loop (no closure per step); a process
only ever starts from :meth:`Simulator.spawn`'s queue.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Optional

from ..errors import ProcessKilled
from .events import Signal

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Simulator

__all__ = ["SimProcess"]


class SimProcess:
    """One coroutine of simulated execution.

    Lifecycle: created by :meth:`Simulator.spawn`, stepped by the engine
    whenever its current wait completes, and finished when the generator
    returns (the return value is stored in :attr:`result`) or raises.
    A process is itself waitable: yielding a ``SimProcess`` blocks until
    it finishes and evaluates to its result.
    """

    __slots__ = (
        "sim", "gen", "name", "finished", "killed", "result", "error",
        "done", "_waiting_on", "_value", "_resume_cb",
    )

    def __init__(self, sim: "Simulator", gen: Generator[Any, Any, Any], name: str):
        self.sim = sim
        self.gen = gen
        self.name = name
        self.finished = False
        self.killed = False
        self.result: Any = None
        self.error: Optional[BaseException] = None
        #: Signal triggered with the process result on completion.
        self.done = Signal(f"{name}.done")
        self._waiting_on: Optional[Signal] = None
        #: Value the next step sends into the generator (set on resume).
        self._value: Any = None
        #: The one bound-method resume callback this process ever
        #: registers (allocated once; signals and kill() must see the
        #: same object for ``discard_callback`` to work).
        self._resume_cb = self._resume

    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """True while the process can still make progress."""
        return not self.finished and not self.killed

    def kill(self) -> None:
        """Forcibly terminate the process (crash injection).

        The generator receives :class:`ProcessKilled` so that ``finally``
        blocks run; the process then counts as dead and its ``done``
        signal is *not* triggered (a crashed node never reports back).
        """
        if not self.alive:
            return
        self.killed = True
        if self._waiting_on is not None:
            self._waiting_on.discard_callback(self._resume_cb)
            self._waiting_on = None
        try:
            self.gen.throw(ProcessKilled(f"process {self.name} killed"))
        except (ProcessKilled, StopIteration):
            pass
        except Exception as exc:  # body swallowed the kill and died anyway
            self.error = exc
        finally:
            self.gen.close()

    # ------------------------------------------------------------------
    def _resume(self, value: Any) -> None:
        """Signal callback: queue the next step at the current time."""
        self._waiting_on = None
        self._value = value
        sim = self.sim
        act = sim._active
        if act is not None:
            act.append(self)
        else:
            sim.schedule(0.0, self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "killed"
            if self.killed
            else "finished"
            if self.finished
            else "running"
        )
        return f"<SimProcess {self.name} {state}>"
