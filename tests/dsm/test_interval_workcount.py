"""Work-count guard: a barrier costs each node O(1) calls into interval.py.

Host seconds depend on the machine; the number of Python calls a
deterministic run makes does not.  This profiles a 2-iteration
``sor/ccl`` run (4 barriers) under ``cProfile``, sums the calls charged
to ``repro/dsm/interval.py`` and divides by barriers x nodes.  A barrier
*delivers* ``n - 1`` interval records to every node, so anything done
once per delivered record -- an ``IntervalTable.add``, a sort-key call,
a ``covers_interval`` -- makes this ratio grow with ``n``: it was 78 at
16 nodes, 122 at 32 and 220 at 64 while ``_apply_notices`` inserted
every record the barrier pruned three lines later and the manager
sorted one list per node.  With one shared notice batch per barrier
(sorted once, joined once, counted instead of inserted) it is flat.
"""

import cProfile
import pstats

import pytest

from repro.apps import make_app
from repro.config import ClusterConfig
from repro.core import make_hooks_factory
from repro.dsm import DsmSystem

#: Calls into ``interval.py`` allowed per barrier per node, at every node
#: count (measured 31.7 at 16 nodes, 27.8 at 32, 28.9 at 64; about a
#: third of it sizes the clocks of page replies and diff batches, which
#: is per fault, not per barrier).  One call per delivered record more
#: would read 47 / 59 / 92.
BUDGET_PER_BARRIER_PER_NODE = 40.0

#: Measured calls per barrier per node at 16 nodes, by function, when the
#: budget was set -- what a failure is compared against to name the culprit.
MEASURED = {
    "nbytes": 10.61, "merge": 4.02, "add": 1.94, "__len__": 1.88,
    "<genexpr>": 1.88, "dominates": 1.75, "_trusted": 1.12,
    "prune_covered_by": 1.0, "as_tuple": 1.0, "lacking": 1.0, "__getitem__": 1.0,
    "__post_init__": 1.0, "tick": 1.0, "records_not_covered_by": 0.94,
    "add_all": 0.94, "<listcomp>": 0.31, "join": 0.06, "__init__": 0.06,
    "all_records": 0.06, "cut_of": 0.06, "zero": 0.06,
}

ITERS = 2  # two half-sweeps each: 4 barriers


def profile_sor(nodes: int):
    """(barriers, {function: calls}) of one profiled sor/ccl run."""
    system = DsmSystem(
        make_app("sor", n=128, iters=ITERS), ClusterConfig.ultra5(num_nodes=nodes),
        make_hooks_factory("ccl"), protocol_name="ccl",
    )
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        system.run()
    finally:
        profiler.disable()
    calls = {}
    for (filename, _line, name), stat in pstats.Stats(profiler).stats.items():
        if filename.endswith("repro/dsm/interval.py"):
            calls[name] = calls.get(name, 0) + stat[1]
    barriers = {node.stats.counters["barriers"] for node in system.nodes}
    assert barriers == {2 * ITERS}
    # every node still receives its peers' one record at each barrier
    assert sum(node.stats.counters["records_pruned"] for node in system.nodes) \
        == nodes * nodes * 2 * ITERS
    return 2 * ITERS, calls


@pytest.mark.parametrize("nodes", [16, 32, 64])  # one budget for every size
def test_interval_calls_per_barrier_per_node_stay_within_budget(nodes, request):
    if request.config.getoption("--sanitize"):
        pytest.skip("--sanitize traces every event, which reads clocks")
    barriers, calls = profile_sor(nodes)
    per_barrier = sum(calls.values()) / (barriers * nodes)
    if per_barrier > BUDGET_PER_BARRIER_PER_NODE:
        growth = {
            name: n / (barriers * nodes) - MEASURED.get(name, 0.0)
            for name, n in calls.items()
        }
        worst = max(growth, key=growth.get)
        pytest.fail(
            f"dsm/interval.py: {per_barrier:.1f} calls per barrier per node at "
            f"{nodes} nodes, budget {BUDGET_PER_BARRIER_PER_NODE}; `{worst}` "
            f"grew most: {calls[worst] / (barriers * nodes):.2f} per barrier "
            f"per node, was {MEASURED.get(worst, 0.0):.2f} -- is something "
            "done once per delivered record again (an insert, a sort key, a "
            "covered test) instead of once per notice batch?"
        )
