"""Run-artifact bundles: manifest round-trip and bundle comparison."""

import json

from repro.obs.artifacts import (
    config_dict,
    git_rev,
    load_bundle,
    new_run_id,
    write_bundle,
)
from repro.obs.explain import explain_manifests, render_explain
from repro.sim.trace import Tracer


def _manifest(total_time: float = 1.5) -> dict:
    return {
        "command": "table2",
        "config": {"num_nodes": 4, "page_size": 4096},
        "results": [
            {"app": "sor", "protocol": "ccl", "total_time": total_time,
             "network_bytes": 1000},
        ],
    }


class TestBundleIO:
    def test_write_then_load_round_trips(self, tmp_path):
        bundle = write_bundle(str(tmp_path), _manifest())
        manifest = load_bundle(str(bundle))
        assert manifest["command"] == "table2"
        assert manifest["run_id"] == bundle.name
        assert "created" in manifest and "git_rev" in manifest

    def test_load_accepts_manifest_path_too(self, tmp_path):
        bundle = write_bundle(str(tmp_path), _manifest())
        direct = load_bundle(str(bundle / "manifest.json"))
        assert direct == load_bundle(str(bundle))

    def test_trace_is_saved_alongside(self, tmp_path):
        t = Tracer(enabled=True)
        sid = t.begin(0.0, 0, "compute", "cpu")
        t.end(sid, 1.0)
        bundle = write_bundle(str(tmp_path), _manifest(), tracer=t)
        manifest = load_bundle(str(bundle))
        assert manifest["trace_file"] == "trace.jsonl"
        back = Tracer.load(str(bundle / "trace.jsonl"))
        assert back.spans == t.spans

    def test_empty_tracer_writes_no_trace_file(self, tmp_path):
        bundle = write_bundle(str(tmp_path), _manifest(),
                              tracer=Tracer(enabled=True))
        assert not (bundle / "trace.jsonl").exists()
        assert "trace_file" not in load_bundle(str(bundle))

    def test_timeline_is_saved_when_given(self, tmp_path):
        doc = {"traceEvents": []}
        bundle = write_bundle(str(tmp_path), _manifest(), timeline=doc)
        assert json.loads((bundle / "timeline.json").read_text()) == doc

    def test_run_ids_never_collide(self, tmp_path):
        a = write_bundle(str(tmp_path), _manifest())
        b = write_bundle(str(tmp_path), _manifest())
        assert a != b

    def test_new_run_id_is_sortable_prefix(self, tmp_path):
        rid = new_run_id(str(tmp_path))
        assert rid.startswith("run-")

    def test_git_rev_inside_this_repo(self):
        rev = git_rev()
        assert rev == "unknown" or (4 <= len(rev) <= 40)

    def test_config_dict_captures_shape(self):
        from repro.config import ClusterConfig

        doc = config_dict(ClusterConfig.ultra5(num_nodes=4))
        assert doc["num_nodes"] == 4 and "repr" in doc


class TestCompare:
    """``explain`` is the bundle diff."""

    def test_identical_manifests_report_no_differences(self, tmp_path):
        a = load_bundle(str(write_bundle(str(tmp_path), _manifest())))
        b = load_bundle(str(write_bundle(str(tmp_path), _manifest())))
        doc = explain_manifests(a, b)
        assert all(row["delta"] == 0.0 for row in doc["headline"])
        assert doc["leaves"] == []
        assert "no differences" in render_explain(doc)

    def test_changed_metric_shows_delta_and_ratio(self, tmp_path):
        a = load_bundle(str(write_bundle(str(tmp_path), _manifest(1.0))))
        b = load_bundle(str(write_bundle(str(tmp_path), _manifest(1.5))))
        doc = explain_manifests(a, b)
        row = next(r for r in doc["headline"] if "total_time" in r["key"])
        assert "sor/ccl" in row["key"]  # keyed by app/protocol, not index
        assert row["delta"] == 0.5 and row["pct"] == 0.5
        assert "total_time" in render_explain(doc)

    def test_metric_present_on_one_side_only(self):
        a = dict(_manifest(), metrics={"x": 1})
        b = _manifest()
        doc = explain_manifests(a, b)
        row = next(r for r in doc["leaves"] if r["key"] == "metrics.x")
        assert row["a"] == 1.0 and row["b"] is None and "delta" not in row
        assert "metrics.x: 1 -> -" in render_explain(doc)
