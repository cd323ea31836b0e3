"""Work-count guard: tracing a diff costs per diff, not per modified run.

Host seconds depend on the machine; the number of Python calls a
deterministic run makes does not.  A traced 4-node ``shallow/ccl`` run
at test scale is profiled under ``cProfile`` and the calls *into*
``repro/memory/diff.py``, plus the calls ``diff.py`` itself makes into
numpy, are divided by the diffs created.  A traced run builds no run
table at all -- the trace keeps each diff's mask and run count and
derives the table when the event is first read, after the run -- so
the ratio is 27, what an untraced run pays.  With one vectorised run
table per traced diff it was 35; when the trace detail was built from
``Diff.runs`` (an ``np.split`` of the words: one array view and one
tuple per run, ``swapaxes`` twice per run inside numpy) and every
``nbytes`` re-ran ``np.diff``, it was 70 here before counting what
``np.split`` did per run -- 49 runs a diff on average at benchmark
scale, where that was most of the traced run.  (Accessors are cheap
frames but frames: 4 of the 27 are ``nbytes`` reading two integers.)

The second guard is the same property stated on one materialised
event: the Python objects reachable from an ``interval_end`` detail are
as many for a 500-run diff as for a 1-run diff, because the run table
is one array.
"""

import cProfile
import json
import pstats

import numpy as np
import pytest

from repro import ClusterConfig, DsmSystem, make_app, make_hooks_factory
from repro.harness.scales import app_kwargs
from repro.sim.trace import Ev, Tracer
from tests.dsm.conftest import MiniApp

#: Calls into ``diff.py`` and from it into numpy allowed per diff created
#: (measured 26.7; a run table built inside the run again -- one per
#: traced diff -- adds 8, and a run count re-derived per ``nbytes`` 20).
BUDGET_PER_DIFF = 30.0

#: Measured calls per diff created, by function, when the budget was set
#: -- what a failure is compared against to name the culprit.
MEASURED = {
    "ndarray.view": 4.77, "nbytes": 4.33, "_as_words": 3.77, "is_empty": 1.39,
    "create_diff": 1.39, "count_nonzero": 1.33, "_count_nonzero_dispatcher": 1.33,
    "_adopt": 1.33, "_diff_of_bits": 1.33, "ndarray.setflags": 1.33,
    "packbits": 1.33, "apply_diff": 1.0, "word_count": 1.0, "unpackbits": 1.0,
    "__init__": 0.05,
}


def _short(name: str) -> str:
    """``<method 'view' of 'numpy.ndarray' objects>`` -> ``ndarray.view``."""
    if name.startswith("<method '"):
        return "ndarray." + name.split("'")[1]
    if name.startswith("<built-in method "):
        return "numpy." + name[len("<built-in method "):-1].rsplit(".", 1)[-1]
    return name


def profile_traced_shallow():
    """(diffs created, {function: calls}) of one profiled traced run."""
    tracer = Tracer(enabled=True)
    system = DsmSystem(
        make_app("shallow", **app_kwargs("shallow", "test")),
        ClusterConfig.ultra5(num_nodes=4),
        make_hooks_factory("ccl"), protocol_name="ccl", tracer=tracer,
    )
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = system.run()
    finally:
        profiler.disable()
        tracer.enabled = False
    stats = pstats.Stats(profiler).stats
    in_diff = {f for f in stats if f[0].endswith("repro/memory/diff.py")}
    calls = {}
    for func, (_cc, ncalls, _tt, _ct, callers) in stats.items():
        if func in in_diff:
            n = ncalls
        elif "numpy" in func[0] or "numpy" in func[2]:
            n = sum(edge[1] for caller, edge in callers.items()
                    if caller in in_diff)
        else:
            continue
        if n:
            name = _short(func[2])
            calls[name] = calls.get(name, 0) + n
    return result.aggregate.counters["diffs_created"], calls, stats


def test_diff_calls_per_traced_diff_stay_within_budget(request):
    if request.config.getoption("--sanitize"):
        pytest.skip("--sanitize audits inside run(): every logged diff is applied again")
    diffs, calls, stats = profile_traced_shallow()
    assert diffs == 225
    splitters = sorted({f[2] for f in stats if f[2] in ("split", "array_split")})
    assert not splitters, (
        f"numpy {splitters} ran in a traced run: a diff's runs are being "
        "split into one array per run again")
    per_diff = sum(calls.values()) / diffs
    if per_diff > BUDGET_PER_DIFF:
        growth = {name: n / diffs - MEASURED.get(name, 0.0)
                  for name, n in calls.items()}
        worst = max(growth, key=growth.get)
        pytest.fail(
            f"memory/diff.py: {per_diff:.1f} calls per diff created in a "
            f"traced run, budget {BUDGET_PER_DIFF}; `{worst}` grew most: "
            f"{calls[worst] / diffs:.2f} per diff, was "
            f"{MEASURED.get(worst, 0.0):.2f} -- is the run structure derived "
            "more than once per diff, or per run, again?"
        )


# ----------------------------------------------------------------------
# one interval_end detail: as many objects for 500 runs as for one
# ----------------------------------------------------------------------
WORDS = 1024  # one 4 KiB page of int32


def _interval_end(written: slice):
    """Rank 0's ``interval_end`` event after writing ``written`` of a
    page homed at rank 1."""

    def alloc(space, nprocs):
        space.allocate("x", (WORDS,), np.int32, init=np.zeros(WORDS, np.int32))

    def program(dsm):
        if dsm.rank == 0:
            yield from dsm.write("x")
            dsm.arr("x")[written] = 7
        yield from dsm.barrier()

    tracer = Tracer(enabled=True)
    try:
        DsmSystem(
            MiniApp(alloc, program, lambda space, nprocs: [1] * space.npages),
            ClusterConfig.ultra5(num_nodes=2), make_hooks_factory("ccl"),
            protocol_name="ccl", tracer=tracer,
        ).run()
    finally:
        tracer.enabled = False
    (event,) = [e for e in tracer.filter(Ev.INTERVAL_END, node=0)
                if e.detail["writes"]]
    return event


def _objects(value) -> int:
    """Python objects reachable from a detail; an array counts as one."""
    if isinstance(value, dict):
        return 1 + sum(_objects(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return 1 + sum(_objects(v) for v in value)
    return 1


def test_interval_end_detail_does_not_grow_with_run_count():
    one_run = _interval_end(slice(0, 8))
    many_runs = _interval_end(slice(0, 1000, 2))
    # what is written out is the full table either way
    (write,) = json.loads(one_run.to_json())["d"]["writes"]
    assert write["runs"] == [[0, 8]]
    (write,) = json.loads(many_runs.to_json())["d"]["writes"]
    assert write["runs"] == [[off, 1] for off in range(0, 1000, 2)]
    assert _objects(many_runs.detail) == _objects(one_run.detail), (
        "an interval_end detail allocates Python objects per modified run: "
        f"{_objects(one_run.detail)} for 1 run, "
        f"{_objects(many_runs.detail)} for 500")
