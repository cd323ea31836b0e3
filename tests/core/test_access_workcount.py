"""Work-count guard: sharing HlrcNode's page-access code added no per-page call.

Host seconds depend on the machine; the number of Python calls a
deterministic run makes does not.  This runs a ``water/ccl`` phase A and
one replay of it under a profile hook and counts every call into this
package's code made inside the page-access path -- ``ensure_read`` /
``ensure_write`` and all they call, except serving a miss, which phase A
and replay do differently -- per page access, and inside the seal --
``_end_interval`` or the replay's ``_seal_interval`` and all they call,
except the replay's start of the next interval -- per sealed page.  A
generator's resumption counts as a call.  Both nodes run
:class:`~repro.dsm.hlrc.PageAccess`'s code.  Small pages give each seal
several pages (7 in phase A, 10 in replay), so a call added once per
seal moves a seal ratio by a fraction, and one added per page (a
per-page seal helper, a miss-serving wrapper) by one; a twin-charge
method called per twin moves the access ratios by about a third.
"""

import sys

import pytest

from repro import ClusterConfig, DsmSystem, make_app, make_hooks_factory
from repro.core import CrashProbe, replay_failed_node
from repro.core.recovery import plan_victim

ACCESS = frozenset({"ensure_read", "ensure_write"})
SEAL = frozenset({"_end_interval", "_seal_interval"})
#: Not counted: serving a miss (not shared) and the replay's next interval.
OUTSIDE = frozenset({"_fault_fetch", "fault", "_begin_interval"})

#: Calls per page access and per sealed page allowed.  Measured before
#: the replay node ran HlrcNode's code: phase A 3.75 and 40.52, replay
#: 3.91 and 12.24.  Sharing the seal loop costs one call per seal in
#: phase A (+0.13 per sealed page) and two in replay (+0.28); the access
#: path costs what it did.
BUDGET = {
    ("phase A", "access"): 4.0,
    ("phase A", "seal"): 41.0,
    ("replay", "access"): 4.15,
    ("replay", "seal"): 12.75,
}


class CallTally:
    """A profile hook: calls inside each path, page accesses, sealed pages."""

    def __init__(self):
        self.calls = {"access": 0, "seal": 0}
        self.accesses = 0
        self.sealed = 0
        #: The path each open frame counts toward (None: neither).
        self._open = []

    def __call__(self, frame, event, arg):
        if event == "call":
            code = frame.f_code
            path = self._open[-1] if self._open else None
            if code.co_name in ACCESS:
                path = "access"
            elif code.co_name in SEAL:
                path = "seal"
            elif code.co_name in OUTSIDE:
                path = None
            if path is not None and "repro" in code.co_filename:
                self.calls[path] += 1
                if code.co_name == "entry" and path == "access":
                    self.accesses += 1
            self._open.append(path)
        elif event == "return" and self._open:
            self._open.pop()
            if frame.f_code.co_name == "take_dirty":
                self.sealed += len(arg)

    def ratios(self):
        return (self.calls["access"] / self.accesses,
                self.calls["seal"] / self.sealed)


def _tallied(run):
    tally = CallTally()
    sys.setprofile(tally)
    try:
        out = run()
    finally:
        sys.setprofile(None)
    return out, tally.ratios()


def test_access_and_seal_calls_stay_within_budget(request):
    if request.config.getoption("--sanitize"):
        pytest.skip("--sanitize traces every page transition")
    config = ClusterConfig.ultra5(num_nodes=4, page_size=256)
    system = DsmSystem(make_app("water", molecules=216, steps=2), config,
                       make_hooks_factory("ccl"))
    probe = CrashProbe(1)
    system.add_probe(probe)
    _result, phase_a = _tallied(system.run)
    probe.finalize()
    plan = plan_victim(system, probe)
    (replay, _seconds), replayed = _tallied(lambda: replay_failed_node(
        system.app, config, "ccl", system, 1, plan.plog, plan.stop_at))
    assert replay.seal_count == plan.stop_at
    measured = {}
    for run, ratios in (("phase A", phase_a), ("replay", replayed)):
        measured[run, "access"], measured[run, "seal"] = ratios
    over = {k: round(v, 2) for k, v in measured.items() if v > BUDGET[k]}
    assert not over, (
        f"calls per page over budget {BUDGET}: {over} -- does the shared "
        "access path call a hook once per page again?"
    )
