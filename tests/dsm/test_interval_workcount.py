"""Work-count guard: vector-clock bookkeeping stays per batch, not per record.

Host seconds depend on the machine; the number of Python calls a
deterministic run makes does not.  This profiles a 16-node, 2-iteration
``sor/ccl`` run under ``cProfile``, sums the calls charged to
``repro/dsm/interval.py`` and divides by the interval records delivered
to ``_apply_notices``.  With one clock join per notice batch that ratio
is ~5 here and *falls* as nodes are added (3.5 at 64); with a merge per
record it was 83 here and 215 at 64 nodes, because every merge re-built
and re-validated a clock of ``n`` components through generator frames.
"""

import cProfile
import pstats

import pytest

from repro.apps import make_app
from repro.config import ClusterConfig
from repro.core import make_hooks_factory
from repro.dsm import DsmSystem
from repro.dsm.hlrc import HlrcNode

#: Calls into ``interval.py`` allowed per delivered record (measured 5.2;
#: a merge + clock construction per record alone would add 2).
BUDGET_PER_RECORD = 6.5

#: Measured calls per delivered record, by function, when the budget was
#: set -- what a failure is compared against to name the culprit.
MEASURED = {
    "add": 1.13, "_causal_key": 1.06, "covers_interval": 1.0, "nbytes": 0.71,
    "merge": 0.2, "_trusted": 0.13, "records_not_covered_by": 0.13,
    "<genexpr>": 0.12, "__len__": 0.12, "dominates": 0.12,
    "prune_covered_by": 0.07, "join": 0.07, "<listcomp>": 0.07,
    "__getitem__": 0.07, "tick": 0.07, "__post_init__": 0.07, "add_all": 0.06,
}


def profile_sor(nodes: int, monkeypatch):
    """(records delivered, {function: calls}) of one profiled sor/ccl run."""
    system = DsmSystem(
        make_app("sor", n=128, iters=2), ClusterConfig.ultra5(num_nodes=nodes),
        make_hooks_factory("ccl"), protocol_name="ccl",
    )
    delivered = []
    apply_notices = HlrcNode._apply_notices

    def counting(self, records):
        delivered.append(len(records))
        return apply_notices(self, records)

    monkeypatch.setattr(HlrcNode, "_apply_notices", counting)
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
    return sum(delivered), calls


@pytest.mark.parametrize("nodes", [16, 32])  # one budget for every size
def test_interval_calls_per_delivered_record_stay_within_budget(
        nodes, monkeypatch, request):
    if request.config.getoption("--sanitize"):
        pytest.skip("--sanitize traces every event, which reads clocks")
    delivered, calls = profile_sor(nodes, monkeypatch)
    # every node is sent its peers' one record at each of 4 barriers
    assert delivered == (nodes - 1) * nodes * 4
    per_record = sum(calls.values()) / delivered
    if per_record > BUDGET_PER_RECORD:
        growth = {
            name: n / delivered - MEASURED.get(name, 0.0)
            for name, n in calls.items()
        }
        worst = max(growth, key=growth.get)
        pytest.fail(
            f"dsm/interval.py: {per_record:.1f} calls per delivered interval "
            f"record, budget {BUDGET_PER_RECORD}; `{worst}` grew most: "
            f"{calls[worst] / delivered:.2f} per record, was "
            f"{MEASURED.get(worst, 0.0):.2f} -- is a clock merged or built "
            "once per record again instead of once per notice batch?"
        )
