"""Work-count guard: a network frame costs a fixed number of calls.

Host seconds depend on the machine; the number of Python calls a
deterministic run makes does not.  The fault-free and faulted runs of
the delivery golden (4-node ``shallow/ccl`` at test scale) are profiled
under ``cProfile``, and the calls into the five message-path modules --
``sim/network.py``, ``sim/events.py``, ``sim/resources.py``,
``sim/faults.py`` and ``dsm/reliable.py`` -- are divided by the frames
the network carried (acks and retransmits included).

A frame is one slotted hop object: scheduled at NIC-finish, it schedules
its arrival(s) and delivers.  When every frame also built a delivery
signal, the NIC's completion signal and its callbacks, an ``on_tx``
closure, one ``deliver`` closure per copy, and (on the reliable path) a
``landed`` signal and a ``maybe_retransmit`` closure per transmission,
the ratios were 16.7 fault-free and 24.2 faulted.
"""

import cProfile
import pstats

import pytest

from tests.sim.test_delivery_golden import build, faulted_plan

MODULES = ("sim/network.py", "sim/events.py", "sim/resources.py",
           "sim/faults.py", "dsm/reliable.py")

#: Calls into the message-path modules allowed per network frame
#: (measured 12.0 fault-free, 14.7 faulted).
BUDGETS = {"fault-free": 14.0, "faulted": 18.0}

#: Measured calls per frame, by function, when the budgets were set --
#: what a failure is compared against to name the culprit.
MEASURED = {
    "fault-free": {
        "network.py:__call__": 2.0, "network.py:__init__": 2.0,
        "events.py:__init__": 1.73, "events.py:trigger": 1.66,
        "resources.py:get": 1.0, "network.py:post": 1.0,
        "network.py:_validate": 1.0, "resources.py:put": 1.0,
        "events.py:add_callback": 0.24, "events.py:make_cb": 0.1,
        "events.py:cb": 0.1, "events.py:as_signal": 0.07,
        "resources.py:request": 0.07, "resources.py:<lambda>": 0.07,
    },
    "faulted": {
        "network.py:__call__": 2.0, "network.py:__init__": 1.91,
        "reliable.py:_on_deliver": 1.0, "faults.py:struck_dead": 1.0,
        "faults.py:delivery_delays": 1.0, "network.py:post": 1.0,
        "faults.py:faults_for": 1.0, "faults.py:quiet": 1.0,
        "network.py:_validate": 1.0, "events.py:__init__": 0.71,
        "events.py:trigger": 0.67, "reliable.py:__call__": 0.5,
        "resources.py:get": 0.41, "reliable.py:post": 0.41,
        "reliable.py:__init__": 0.41, "resources.py:put": 0.41,
        "events.py:add_callback": 0.1, "events.py:make_cb": 0.04,
        "events.py:cb": 0.04, "events.py:as_signal": 0.03,
        "resources.py:request": 0.03, "resources.py:<lambda>": 0.03,
    },
}

SYSTEMS = {"fault-free": build, "faulted": lambda: build(plan=faulted_plan())}


def profile_frames(case: str):
    """(network frames, {module:function: calls}) of one profiled run."""
    system = SYSTEMS[case]()
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        system.run()
    finally:
        profiler.disable()
    calls = {}
    for (filename, _line, name), stat in pstats.Stats(profiler).stats.items():
        module = next((m for m in MODULES if filename.endswith("repro/" + m)), None)
        if module is not None:
            key = f"{module.rsplit('/', 1)[1]}:{name}"
            calls[key] = calls.get(key, 0) + stat[1]
    return sum(system.network.msgs_sent), calls


@pytest.mark.parametrize("case", sorted(SYSTEMS))
def test_message_path_calls_per_frame_stay_within_budget(case, request):
    if request.config.getoption("--sanitize"):
        pytest.skip("--sanitize traces every event, which adds calls per frame")
    frames, calls = profile_frames(case)
    per_frame = sum(calls.values()) / frames
    budget = BUDGETS[case]
    if per_frame > budget:
        measured = MEASURED[case]
        growth = {name: n / frames - measured.get(name, 0.0)
                  for name, n in calls.items()}
        worst = max(growth, key=growth.get)
        pytest.fail(
            f"message path ({case}): {per_frame:.1f} calls per network frame, "
            f"budget {budget}; `{worst}` grew most: {calls[worst] / frames:.2f} "
            f"per frame, was {measured.get(worst, 0.0):.2f} -- is a signal, "
            "closure or nested generator built per frame again?"
        )
