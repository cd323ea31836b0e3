"""The calendar-bucket engine fires events exactly like a (time, seq) heap.

The engine in :mod:`repro.sim.engine` replaced the classic binary-heap
scheduler with calendar buckets, batched same-timestamp dispatch, a
serial spin fast path, and inlined process stepping -- all pure
mechanics.  The *observable* contract is unchanged: events fire in
``(time, scheduling order)`` sequence, which the recovery layer's
piecewise-deterministic replay assumes.  This suite pins that contract
against :class:`ReferenceHeapSimulator`, a deliberately naive
re-implementation of the old scheduler, across seeded random workloads
covering:

* callback storms with zero delays and colliding timestamps;
* coroutine processes mixing bare-float timeouts, ``Timeout`` objects,
  signal waits/triggers, and joins (exercising the spin fast path and
  batched dispatch);
* ``run(until=...)`` truncation and segmented resumption;
* ``schedule_labeled`` parking under a controlled scheduler;
* deadlock detection (both engines must name the same blocked set).
"""

import heapq
import random

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim import Signal, Simulator, Timeout
from repro.sim.engine import PendingChoice


class ReferenceProcess:
    """A generator stepped one request at a time, straight off the heap.

    Shares no code with :class:`~repro.sim.process.SimProcess` or the
    engine's inlined dispatch: the workloads only yield bare-number and
    :class:`Timeout` delays and :class:`Signal` waits, and each step
    re-enters the heap exactly as the textbook scheduler would.
    """

    def __init__(self, sim, gen, name):
        self.sim, self.gen, self.name = sim, gen, name
        self.alive = True

    def step(self, value=None):
        try:
            request = self.gen.send(value)
        except StopIteration:
            self.alive = False
            return
        if isinstance(request, Timeout):
            self.sim.schedule(request.delay, self.step)
        elif isinstance(request, Signal):
            # a wake-up is a fresh event at the current instant
            request.add_callback(
                lambda v: self.sim.schedule(0.0, lambda: self.step(v))
            )
        else:
            self.sim.schedule(float(request), self.step)


class ReferenceHeapSimulator:
    """The classic ``(time, seq)`` heap scheduler, kept as an oracle.

    Implements the :class:`Simulator` surface the workloads below use
    (``schedule``, ``schedule_labeled``, ``spawn``, ``run``, ``now``,
    ``choice_fn``) with one heap entry per event and a monotone
    sequence number as the tie-breaker -- the textbook formulation the
    production engine must stay order-identical to.
    """

    def __init__(self):
        self.now = 0.0
        self._seq = 0
        self._heap = []
        self._processes = []
        self.choice_fn = None
        self._choices = []

    def schedule(self, delay, fn):
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn))

    def schedule_labeled(self, delay, fn, label):
        if self.choice_fn is None:
            self.schedule(delay, fn)
            return
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._seq += 1
        self._choices.append(PendingChoice(label, self.now + delay, self._seq, fn))

    def spawn(self, gen, name="proc"):
        proc = ReferenceProcess(self, gen, name)
        self._processes.append(proc)
        self.schedule(0.0, proc.step)
        return proc

    def run(self, until=None, detect_deadlock=True):
        while True:
            if self._heap:
                t, _seq, fn = self._heap[0]
                if until is not None and t > until:
                    self.now = until
                    return until
                heapq.heappop(self._heap)
                self.now = t
                fn()
                continue
            if self.choice_fn is None or not self._choices:
                break
            chosen = self.choice_fn(list(self._choices))
            if chosen is None:
                break
            self._choices.remove(chosen)
            if chosen.time > self.now:
                self.now = chosen.time
            chosen.fn()
        if detect_deadlock:
            blocked = [p.name for p in self._processes if p.alive]
            if blocked:
                raise DeadlockError(blocked)
        return self.now


#: Delay menu: zero delays, colliding repeats, sub-resolution floats,
#: and values whose sums collide (0.25 + 0.75 == 0.5 + 0.5).
DELAYS = [0.0, 0.0, 1e-9, 1e-4, 1e-4, 0.25, 0.5, 0.5, 0.75, 1.0, 3.5]


# ----------------------------------------------------------------------
# workload 1: callback trees
# ----------------------------------------------------------------------

def _gen_tree(rng, depth, counter):
    node = {"id": counter[0], "children": []}
    counter[0] += 1
    if depth > 0:
        for _ in range(rng.randrange(0, 4)):
            node["children"].append(
                (rng.choice(DELAYS), _gen_tree(rng, depth - 1, counter))
            )
    return node


def _fire(sim, log, node):
    def fn():
        log.append((sim.now, node["id"]))
        for delay, child in node["children"]:
            sim.schedule(delay, _fire(sim, log, child))
    return fn


def _run_tree_workload(sim, roots, until_points):
    log = []
    for delay, root in roots:
        sim.schedule(delay, _fire(sim, log, root))
    marks = []
    for u in until_points:
        marks.append((sim.run(until=u, detect_deadlock=False), len(log)))
    sim.run(detect_deadlock=False)
    return log, marks


@pytest.mark.parametrize("seed", range(25))
def test_callback_trees_fire_in_identical_order(seed):
    rng = random.Random(seed)
    counter = [0]
    roots = [
        (rng.choice(DELAYS), _gen_tree(rng, rng.randrange(1, 5), counter))
        for _ in range(rng.randrange(1, 5))
    ]
    # segmented run: truncate at a few seeded instants, then drain
    until_points = sorted(rng.uniform(0.0, 4.0) for _ in range(rng.randrange(0, 3)))

    log_new, marks_new = _run_tree_workload(Simulator(), roots, until_points)
    log_ref, marks_ref = _run_tree_workload(
        ReferenceHeapSimulator(), roots, until_points
    )
    assert log_new == log_ref
    assert marks_new == marks_ref
    assert len(log_new) == counter[0]


# ----------------------------------------------------------------------
# workload 2: coroutine processes (timeouts, signals, joins)
# ----------------------------------------------------------------------

def _gen_program(rng):
    """A seeded multi-process script over a small shared signal space.

    Each signal key has exactly one triggering op (double-trigger is an
    error) but any number of waiters; waits on never-triggered keys are
    *intentional* -- both engines must then report the same deadlock.
    """
    nprocs = rng.randrange(1, 5)
    triggered = set()
    program = []
    for _pid in range(nprocs):
        ops = []
        for _ in range(rng.randrange(2, 9)):
            kind = rng.randrange(6)
            if kind <= 1:
                ops.append(("sleep", rng.choice(DELAYS)))
            elif kind == 2:
                ops.append(("sleep_t", rng.choice(DELAYS)))
            elif kind == 3:
                key = rng.randrange(4)
                if key not in triggered:
                    triggered.add(key)
                    ops.append(("trigger", key))
            elif kind == 4:
                ops.append(("wait", rng.randrange(4)))
            else:
                ops.append(("spin", rng.randrange(1, 30)))
        program.append(ops)
    return program


def _run_program(sim, program):
    log = []
    signals = {}

    def sig(key):
        if key not in signals:
            signals[key] = Signal(f"s{key}")
        return signals[key]

    def body(pid, ops):
        for j, op in enumerate(ops):
            kind = op[0]
            if kind == "sleep":
                yield op[1]
            elif kind == "sleep_t":
                yield Timeout(op[1])
            elif kind == "trigger":
                sig(op[1]).trigger((pid, j))
            elif kind == "wait":
                got = yield sig(op[1])
                log.append((sim.now, pid, j, got))
                continue
            elif kind == "spin":
                # lone-runner consecutive timeouts: the engine's serial
                # spin fast path, the reference's heap churn
                for _ in range(op[1]):
                    yield 0.001
            log.append((sim.now, pid, j, None))

    for pid, ops in enumerate(program):
        sim.spawn(body(pid, ops), name=f"p{pid}")
    try:
        end = sim.run()
        return log, end, None
    except DeadlockError as exc:
        return log, sim.now, str(exc)


@pytest.mark.parametrize("seed", range(25))
def test_process_programs_step_in_identical_order(seed):
    program = _gen_program(random.Random(seed))
    log_new, end_new, dl_new = _run_program(Simulator(), program)
    log_ref, end_ref, dl_ref = _run_program(ReferenceHeapSimulator(), program)
    assert log_new == log_ref
    assert end_new == end_ref
    assert dl_new == dl_ref  # same deadlock verdict, same blocked names


def test_single_process_spin_matches_reference_exactly():
    """The spin fast path advances the clock bit-identically."""
    def body():
        for i in range(200):
            yield 0.001 * (1 + (i % 7))

    sim_new, sim_ref = Simulator(), ReferenceHeapSimulator()
    sim_new.spawn(body(), name="solo")
    sim_ref.spawn(body(), name="solo")
    assert sim_new.run() == sim_ref.run()


# ----------------------------------------------------------------------
# workload 3: labelled parking under a controlled scheduler
# ----------------------------------------------------------------------

def _labeled_workload(sim, seed):
    rng = random.Random(seed)
    log = []
    sim.choice_fn = lambda pending: min(pending, key=lambda c: (c.time, c.label))

    def delivery(label):
        def fn():
            log.append((sim.now, "choice", label))
            # a delivery wakes eager follow-up work that must drain
            # before the next labelled choice fires
            sim.schedule(rng.choice(DELAYS), lambda: log.append((sim.now, "eager", label)))
        return fn

    def source():
        for i in range(rng.randrange(3, 8)):
            yield rng.choice(DELAYS)
            sim.schedule_labeled(rng.choice(DELAYS), delivery(i), label=i)
            log.append((sim.now, "sent", i))

    sim.spawn(source(), name="src")
    sim.run(detect_deadlock=False)
    return log


@pytest.mark.parametrize("seed", range(10))
def test_labeled_parking_fires_in_identical_order(seed):
    assert _labeled_workload(Simulator(), seed) == _labeled_workload(
        ReferenceHeapSimulator(), seed
    )


# ----------------------------------------------------------------------
# repr/pending accounting (parked choices count as pending)
# ----------------------------------------------------------------------

def test_pending_count_includes_parked_choices():
    sim = Simulator()
    sim.choice_fn = lambda pending: None
    sim.schedule(1.0, lambda: None)
    sim.schedule_labeled(2.0, lambda: None, label="a")
    sim.schedule_labeled(3.0, lambda: None, label="b")
    assert sim.pending_count == 3
    assert "pending=3" in repr(sim)
