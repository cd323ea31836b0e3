"""``repro explain``: attribution of run deltas to components.

The pinned acceptance test injects a deliberate slowdown (a 50x slower
application flop rate, i.e. a planted compute regression) and requires
explain to rank the ``compute`` phase as the #1 contributor --
attribution must find planted regressions, not just describe noise.
A uniform compute slowdown is the clean probe: it leaves barrier skew
unchanged, so the delta lands in exactly one phase.  (Asymmetric
injections like a slower lock hold leak into every *other* node's
``sync`` wait -- which explain also surfaces, but as split shares.)
"""

import dataclasses

import pytest

from repro.config import ClusterConfig
from repro.harness.runner import run_application
from repro.obs.artifacts import result_summary
from repro.obs.explain import explain_history, explain_manifests, render_explain


def _manifest(result, run_id):
    return {"run_id": run_id, "git_rev": "test",
            "results": [result_summary(result)]}


def _run(config):
    result, _system = run_application("sor", "ccl", config, "test")
    return result


@pytest.fixture(scope="module")
def slowdown_doc():
    base_cfg = ClusterConfig.ultra5(num_nodes=4)
    slow_cpu = dataclasses.replace(base_cfg.cpu,
                                   flop_rate=base_cfg.cpu.flop_rate / 50)
    slow_cfg = base_cfg.with_changes(cpu=slow_cpu)
    fast, slow = _run(base_cfg), _run(slow_cfg)
    assert slow.total_time > fast.total_time
    return explain_manifests(_manifest(fast, "fast"), _manifest(slow, "slow"))


def test_injected_compute_slowdown_ranked_first(slowdown_doc):
    phases = slowdown_doc["phases"]
    assert phases, "phase attribution must not be empty"
    assert phases[0]["key"] == "compute", (
        f"expected the planted compute regression ranked #1, got {phases[0]}")
    assert phases[0]["delta"] > 0
    assert phases[0]["share"] == max(r["share"] for r in phases)


def test_headline_reports_total_time_delta(slowdown_doc):
    heads = {r["key"]: r for r in slowdown_doc["headline"]}
    row = heads["SOR/ccl total_time"]
    assert row["delta"] > 0
    assert row["pct"] > 0


def test_render_explain_mentions_top_phase(slowdown_doc):
    text = render_explain(slowdown_doc)
    assert "explain: A=fast" in text
    lines = text.splitlines()
    first_rank = next(ln for ln in lines if ln.strip().startswith("#1"))
    assert "compute" in first_rank


def test_explain_identical_runs_is_quiet():
    cfg = ClusterConfig.ultra5(num_nodes=4)
    result = _run(cfg)
    doc = explain_manifests(_manifest(result, "a"), _manifest(result, "b"))
    assert all(r["delta"] == 0 for r in doc["headline"])
    assert doc["phases"] == []  # zero-delta keys are dropped entirely


def test_explain_disjoint_manifests():
    a = {"run_id": "a", "results": [{"app": "x", "protocol": "ccl",
                                     "total_time": 1.0}]}
    b = {"run_id": "b", "results": [{"app": "y", "protocol": "ccl",
                                     "total_time": 2.0}]}
    doc = explain_manifests(a, b)
    assert doc["shared_results"] == []
    assert doc["headline"] == []
    assert "no (app, protocol) results in common" in render_explain(doc)


def test_explain_lists_every_other_moved_leaf():
    def manifest(run_id, network_bytes, msgs, overlap, **metrics):
        return {"run_id": run_id,
                "results": [{"app": "sor", "protocol": "ccl", "total_time": 1.0,
                             "network_bytes": network_bytes,
                             "time": {"compute": 1.0}, "counters": {"faults": 3}}],
                "metrics": {"net": {"msgs": msgs}, "same": 1, **metrics},
                "overlap": {"sor": overlap}}

    doc = explain_manifests(manifest("a", 100, 5, 0.5),
                            manifest("b", 120, 6, 0.25, extra=7))
    assert [(r["key"], r.get("delta")) for r in doc["leaves"]] == [
        ("metrics.extra", None), ("metrics.net.msgs", 1.0),
        ("overlap.sor", -0.25), ("results[sor/ccl].network_bytes", 20.0)]
    assert doc["phases"] == doc["counters"] == []
    text = render_explain(doc)
    assert "results[sor/ccl].network_bytes: 100 -> 120  +20" in text
    assert "no differences" not in text


def test_explain_history_ranks_kernel_regressions():
    ea = {"ts": "t0", "git_rev": "aaa", "sim_events_per_sec": 1e6,
          "kernels_ns_per_op": {"create_diff_dense": 100.0,
                                "apply_diff_dense": 200.0}}
    eb = {"ts": "t1", "git_rev": "bbb", "sim_events_per_sec": 9e5,
          "kernels_ns_per_op": {"create_diff_dense": 400.0,
                                "apply_diff_dense": 210.0}}
    doc = explain_history(ea, eb)
    assert doc["headline"][0]["key"] == "sim_events_per_sec"
    assert doc["headline"][0]["pct"] == pytest.approx(-0.1)
    assert doc["kernels"][0]["key"] == "create_diff_dense"
    assert doc["kernels"][0]["delta"] == pytest.approx(300.0)
    text = render_explain(doc)
    first_rank = next(ln for ln in text.splitlines()
                      if ln.strip().startswith("#1"))
    assert "create_diff_dense" in first_rank
