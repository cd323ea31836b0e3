"""The discrete-event simulation core.

:class:`Simulator` owns the virtual clock and a *calendar-bucket* event
queue: every pending event lives in the list (bucket) of its exact
firing timestamp, buckets are ordered by a binary heap holding one
entry per **distinct** time, and the earliest bucket is cached in a
dedicated slot so the common serial case (one event in flight) never
touches the dict or the heap at all.  Events at equal timestamps
execute in scheduling order -- buckets are appended in call order, and
the monotone heap of distinct times orders everything else -- which
makes every simulation fully deterministic: a property the recovery
tests rely on, since message logging assumes piecewise-deterministic
execution.  The firing order is *identical* to the classic
``(time, seq)`` binary heap this engine replaced (a property test pins
the equivalence against a reference heap scheduler).

Three further mechanics keep the per-event cost low:

* **batched same-timestamp dispatch** -- the run loop pops one bucket
  and drains it by index; events scheduled *at the current time* while
  the batch runs (process resumes, zero-delay follow-ups) are plain
  list appends onto the active batch, with no heap traffic;
* **a bucket freelist** -- drained bucket lists are recycled through a
  small pool instead of being reallocated per timestamp;
* **inlined process stepping** -- :class:`~repro.sim.process.SimProcess`
  instances are queued directly (no per-step closure) and the engine
  steps their generators in the drain loop, dispatching on the yielded
  request type without an intermediate call frame.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, Generator, List, Optional

from ..errors import DeadlockError, ProcessKilled, SimulationError
from .events import AllOf, Signal, Timeout
from .process import SimProcess

__all__ = ["PendingChoice", "Simulator"]

#: Retained drained-bucket lists (the slab/freelist); small, since the
#: working set is the number of *distinct* pending timestamps.
_POOL_MAX = 64


class PendingChoice:
    """A labelled event held back for a controlled scheduler.

    When a :class:`Simulator` runs under a ``choice_fn`` (see
    :meth:`Simulator.run`), events scheduled through
    :meth:`Simulator.schedule_labeled` are parked here instead of the
    event queue.  The label identifies the event to the scheduler (the
    model checker keys on it for partial-order reduction); ``time`` is
    the instant the event would have fired under the default policy.
    """

    __slots__ = ("label", "time", "seq", "fn")

    def __init__(
        self, label: Any, time: float, seq: int, fn: Callable[[], None]
    ):
        self.label = label
        self.time = time
        self.seq = seq
        self.fn = fn

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PendingChoice({self.label!r} @ {self.time:.6f})"


class Simulator:
    """Deterministic discrete-event simulator with coroutine processes.

    Typical use::

        sim = Simulator()
        proc = sim.spawn(my_generator(), name="worker")
        sim.run()                 # drain all events
        assert proc.finished

    The engine itself knows nothing about networks or disks; those are
    layered on top via :class:`~repro.sim.events.Signal` and
    :class:`~repro.sim.resources.FifoServer`.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._seq = 0
        # earliest pending bucket, cached outside the dict/heap: the
        # serial-chain fast path schedules into and drains out of this
        # slot alone
        self._t0: Optional[float] = None
        self._b0: Optional[List[Any]] = None
        #: Heap of further distinct pending times (one entry per time).
        self._times: List[float] = []
        #: time -> event list, for every time in ``_times``.
        self._buckets: Dict[float, List[Any]] = {}
        #: Bucket being drained; same-time schedules append here.
        self._active: Optional[List[Any]] = None
        #: Recycled bucket lists.
        self._pool: List[List[Any]] = []
        self._processes: List[SimProcess] = []
        self._running = False
        #: Controlled-scheduler hook.  When set, labelled events (see
        #: :meth:`schedule_labeled`) are *not* queue-ordered; instead,
        #: whenever the queue drains, ``choice_fn(pending)`` picks which
        #: labelled event fires next (``None`` stops the run).  The model
        #: checker uses this to enumerate delivery interleavings.
        self.choice_fn: Optional[
            Callable[[List[PendingChoice]], Optional[PendingChoice]]
        ] = None
        self._choices: List[PendingChoice] = []

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Any) -> None:
        """Run ``fn`` after ``delay`` seconds of virtual time.

        ``fn`` is a zero-argument callable -- or, internally, a
        :class:`~repro.sim.process.SimProcess` to step (the engine
        queues processes directly to avoid a closure per step).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        now = self.now
        t = now + delay
        if t == now:
            act = self._active
            if act is not None:
                act.append(fn)
                return
        t0 = self._t0
        if t0 is None:
            # an older bucket at exactly t may already live in the dict
            # tier (scheduled while the slot held an earlier time);
            # append there or newer events would fire first
            b = self._buckets.get(t) if self._times else None
            if b is not None:
                b.append(fn)
                return
            self._t0 = t
            pool = self._pool
            if pool:
                b = pool.pop()
                b.append(fn)
                self._b0 = b
            else:
                self._b0 = [fn]
        elif t == t0:
            self._b0.append(fn)  # type: ignore[union-attr]
        elif t > t0:
            b = self._buckets.get(t)
            if b is None:
                self._buckets[t] = [fn]
                heapq.heappush(self._times, t)
            else:
                b.append(fn)
        else:
            self._demote_front()
            b = self._buckets.get(t) if self._times else None
            if b is not None:
                b.append(fn)
                return
            self._t0 = t
            self._b0 = [fn]

    def _demote_front(self) -> None:
        """Move the cached earliest bucket into the dict/heap tier.

        An existing bucket at the same time always predates the cached
        one (times re-enter the front slot only after their dict entry
        was drained), so dict-first extend order preserves scheduling
        order.
        """
        t0 = self._t0
        b0 = self._b0
        assert t0 is not None and b0 is not None
        ex = self._buckets.get(t0)
        if ex is None:
            self._buckets[t0] = b0
            heapq.heappush(self._times, t0)
        else:  # pragma: no cover - unreachable by invariant, kept safe
            ex.extend(b0)
        self._t0 = None
        self._b0 = None

    def _requeue_front(self, t: float, b: List[Any]) -> None:
        """Reattach an undrained bucket so its events fire first at ``t``.

        Used when ``run(until=...)`` stops short of the bucket and when
        an event raises mid-batch (the unexecuted tail survives, as it
        did in the heap engine).
        """
        t0 = self._t0
        if t0 is None:
            self._t0 = t
            self._b0 = b
        elif t == t0:  # pragma: no cover - unreachable by invariant
            b.extend(self._b0)  # type: ignore[arg-type]
            self._b0 = b
        elif t < t0:
            self._demote_front()
            self._t0 = t
            self._b0 = b
        else:  # pragma: no cover - unreachable by invariant
            ex = self._buckets.get(t)
            if ex is None:
                self._buckets[t] = b
                heapq.heappush(self._times, t)
            else:
                ex[:0] = b

    def schedule_labeled(
        self, delay: float, fn: Callable[[], None], label: Any
    ) -> None:
        """Schedule ``fn`` as a *choice point* when under a controlled
        scheduler; identical to :meth:`schedule` otherwise.

        The label carries whatever identity the scheduler needs (the
        network uses a :class:`~repro.sim.network.DeliveryLabel`).
        """
        if self.choice_fn is None:
            self.schedule(delay, fn)
            return
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._seq += 1
        self._choices.append(
            PendingChoice(label, self.now + delay, self._seq, fn)
        )

    def spawn(
        self, gen: Generator[Any, Any, Any], name: str = "proc"
    ) -> SimProcess:
        """Register a generator as a simulated process and start it.

        The first step of the process executes at the current virtual
        time (via a zero-delay event), so spawning during a run is safe.
        """
        proc = SimProcess(self, gen, name=name)
        self._processes.append(proc)
        self.schedule(0.0, proc)
        return proc

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self, until: Optional[float] = None, detect_deadlock: bool = True
    ) -> float:
        """Drain the event queue; return the final virtual time.

        If ``until`` is given, stop once the clock would pass it (the
        event that lies beyond ``until`` stays queued).  When the queue
        drains while spawned processes are still alive and
        ``detect_deadlock`` is set, a :class:`DeadlockError` is raised
        naming the blocked processes -- the usual symptom of a protocol
        bug such as a barrier that never releases.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        try:
            heappush = heapq.heappush
            heappop = heapq.heappop
            times = self._times
            buckets = self._buckets
            pool = self._pool
            simprocess = SimProcess
            timeout_cls = Timeout
            while True:
                # -- pick the earliest bucket ---------------------------
                t0 = self._t0
                if t0 is not None and (not times or t0 <= times[0]):
                    t = t0
                    b = self._b0
                    self._t0 = None
                    self._b0 = None
                elif times:
                    t = heappop(times)
                    b = buckets.pop(t)
                else:
                    # Queue drained: consult the controlled scheduler, if
                    # any.  Only when every eager (unlabelled) event has
                    # executed is a labelled event picked -- so each
                    # choice point sees the system quiescent except for
                    # held-back deliveries.
                    if self.choice_fn is None or not self._choices:
                        break
                    chosen = self.choice_fn(list(self._choices))
                    if chosen is None:
                        break
                    self._choices.remove(chosen)
                    # The clock may already have run past the event's
                    # natural firing time (an earlier choice delayed it);
                    # deliveries commute with the events in between, so
                    # clamping forward preserves causality.
                    if chosen.time > self.now:
                        self.now = chosen.time
                    chosen.fn()
                    continue
                assert b is not None
                if until is not None and t > until:
                    self._requeue_front(t, b)
                    self.now = until
                    return until
                self.now = t
                # -- batched same-timestamp dispatch --------------------
                self._active = b
                i = 0
                try:
                    while i < len(b):
                        e = b[i]
                        i += 1
                        if e.__class__ is not simprocess:
                            e()
                            continue
                        # ---- inlined SimProcess step (hot path) ----
                        if e.killed or e.finished:
                            continue
                        v = e._value
                        if v is not None:
                            e._value = None
                        while True:
                            try:
                                req = e.gen.send(v)
                            except StopIteration as stop:
                                e.finished = True
                                e.result = stop.value
                                e.done.trigger(stop.value)
                                break
                            except ProcessKilled:
                                e.killed = True
                                break
                            except Exception as exc:
                                e.finished = True
                                e.error = exc
                                raise SimulationError(
                                    f"simulated process {e.name!r} raised "
                                    f"{exc!r}"
                                ) from exc
                            rc = req.__class__
                            if rc is float:
                                delay = req
                            elif rc is timeout_cls:
                                delay = req.delay
                            elif isinstance(req, Signal):
                                if req.triggered:
                                    e._value = req.value
                                    b.append(e)
                                else:
                                    e._waiting_on = req
                                    req._callbacks.append(e._resume_cb)
                                break
                            elif isinstance(req, AllOf):
                                sig = req.as_signal()
                                if sig.triggered:
                                    e._value = sig.value
                                    b.append(e)
                                else:
                                    e._waiting_on = sig
                                    sig._callbacks.append(e._resume_cb)
                                break
                            elif isinstance(req, simprocess):
                                sig = req.done
                                if sig.triggered:
                                    e._value = sig.value
                                    b.append(e)
                                else:
                                    e._waiting_on = sig
                                    sig._callbacks.append(e._resume_cb)
                                break
                            elif isinstance(req, Timeout):
                                delay = req.delay
                            elif isinstance(req, (float, int)) and rc is not bool:
                                # float subclasses (np.float64) and ints
                                delay = float(req)
                            else:
                                raise SimulationError(
                                    f"process {e.name!r} yielded "
                                    f"unsupported request {req!r}"
                                )
                            # -- timeout request --------------------------
                            if delay < 0:
                                raise SimulationError(
                                    f"negative timeout: {delay}"
                                )
                            t2 = t + delay
                            if t2 == t:
                                b.append(e)
                                break
                            if (
                                i == len(b)
                                and self._t0 is None
                                and (not times or t2 < times[0])
                                and (until is None or t2 <= until)
                            ):
                                # serial spin: this process is the only
                                # runnable work and its timeout is the
                                # earliest pending instant -- advance the
                                # clock and step it again with no queue
                                # traffic at all
                                self.now = t = t2
                                v = None
                                continue
                            t0 = self._t0
                            if t0 is None:
                                nb = buckets.get(t2) if times else None
                                if nb is not None:
                                    nb.append(e)
                                    break
                                self._t0 = t2
                                if pool:
                                    nb = pool.pop()
                                    nb.append(e)
                                    self._b0 = nb
                                else:
                                    self._b0 = [e]
                            elif t2 == t0:
                                self._b0.append(e)  # type: ignore[union-attr]
                            elif t2 > t0:
                                nb = buckets.get(t2)
                                if nb is None:
                                    buckets[t2] = [e]
                                    heappush(times, t2)
                                else:
                                    nb.append(e)
                            else:
                                self._demote_front()
                                nb = buckets.get(t2) if times else None
                                if nb is not None:
                                    nb.append(e)
                                    break
                                self._t0 = t2
                                self._b0 = [e]
                            break
                finally:
                    self._active = None
                    if i < len(b):
                        # an event raised: keep the unexecuted tail
                        # queued, exactly as the heap engine did
                        self._requeue_front(t, b[i:])
                del b[:]
                if len(pool) < _POOL_MAX:
                    pool.append(b)
        finally:
            self._running = False
        if detect_deadlock:
            blocked = [p.name for p in self._processes if p.alive]
            if blocked:
                raise DeadlockError(blocked)
        return self.now

    @property
    def live_processes(self) -> List[SimProcess]:
        """Processes that have neither finished nor been killed."""
        return [p for p in self._processes if p.alive]

    @property
    def pending_count(self) -> int:
        """Queued events plus parked :class:`PendingChoice` events."""
        n = sum(len(b) for b in self._buckets.values()) + len(self._choices)
        if self._b0 is not None:
            n += len(self._b0)
        return n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator now={self.now:.6f} pending={self.pending_count}>"
