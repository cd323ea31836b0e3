"""Tracing off must not perturb the simulation: pinned golden outputs.

``golden_sor_test4.json`` was captured with tracing disabled
(sor @ test scale, 4 nodes, protocols none/ml/ccl; log volumes use the
framed on-disk encoding of ``repro.core.logformat``).  Every simulated
quantity -- counters, time buckets, network traffic, log volume, total
time -- and the rendered Table 2 panel must stay bit-identical with
tracing disabled (the default).  This is what lets the span
instrumentation live inside the protocol hot paths: when ``Tracer.
enabled`` is False the guards reduce every call to a no-op.
"""

import json
from pathlib import Path

import pytest

from repro.config import ClusterConfig
from repro.harness.runner import logging_comparison, run_application
from repro.harness.tables import render_table2_panel

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_sor_test4.json").read_text()
)


def _summary(result):
    return json.loads(json.dumps({
        "agg_counters": dict(result.aggregate.counters),
        "agg_time": result.aggregate.time.as_dict(),
        "network_bytes": result.network_bytes,
        "network_msgs": result.network_msgs,
        "num_flushes": result.num_flushes,
        "total_log_bytes": result.total_log_bytes,
        "total_time": result.total_time,
    }))


@pytest.mark.parametrize("protocol", ["none", "ml", "ccl"])
def test_untraced_run_matches_pre_telemetry_golden(protocol):
    config = ClusterConfig.ultra5(num_nodes=4)
    result, system = run_application("sor", protocol, config, "test")
    assert not system.tracer.enabled
    assert len(system.tracer.spans) == 0 and len(system.tracer.edges) == 0
    assert _summary(result) == GOLDEN[protocol]


def test_table2_panel_renders_identically():
    config = ClusterConfig.ultra5(num_nodes=4)
    cmp = logging_comparison("sor", config, "test")
    assert render_table2_panel(cmp) == GOLDEN["table2_panel"]


def test_traced_run_does_not_change_simulated_results():
    from repro.analysis.sanitize import traced

    config = ClusterConfig.ultra5(num_nodes=4)
    with traced():
        result, system = run_application("sor", "ccl", config, "test")
    # traced() switches the tracer back off and leaves the trace
    assert not system.tracer.enabled
    assert len(system.tracer.spans) > 0 and len(system.tracer) > 0
    # observation must be free in virtual time: same golden numbers
    assert _summary(result) == GOLDEN["ccl"]
