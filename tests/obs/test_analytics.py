"""Columnar trace store: ingest through the one loader, and the built-in
reports."""

import time

import pytest

from repro.config import ClusterConfig
from repro.obs import analytics
from repro.obs.artifacts import load_trace
from repro.sim.trace import Tracer


# ----------------------------------------------------------------------
# synthetic traces with known answers
# ----------------------------------------------------------------------

def _synthetic_tracer() -> Tracer:
    t = Tracer(enabled=True)
    # two locks: lock 7 heavily contended, lock 1 uncontended
    t.record(0.0, 0, "lock_grant", {"lock": 7, "to": 0, "queued": False})
    t.record(0.1, 0, "lock_grant", {"lock": 7, "to": 1, "queued": True})
    t.record(0.2, 0, "lock_grant", {"lock": 7, "to": 2, "queued": True})
    t.record(0.0, 1, "lock_grant", {"lock": 1, "to": 1, "queued": False})
    sid = t.begin(0.0, 1, "lock_wait", "wait", detail={"lock": 7})
    t.end(sid, 0.1)
    sid = t.begin(0.0, 2, "lock_wait", "wait", detail={"lock": 7})
    t.end(sid, 0.2)
    # page traffic: page 3 hot (2 fetches + diffs), page 9 cold
    t.record(0.3, 1, "page_fetch", {"page": 3, "home": 0, "crc": 1})
    t.record(0.4, 2, "page_fetch", {"page": 3, "home": 0, "crc": 1})
    t.record(0.5, 2, "page_fetch", {"page": 9, "home": 1, "crc": 2})
    t.record(0.6, 1, "diff_send",
             {"home": 0, "index": 1, "part": 0, "pages": [3, 3], "vt": [1, 0, 0]})
    t.record(0.7, 0, "diff_apply",
             {"writer": 1, "index": 1, "part": 0, "pages": [3, 3], "vt": [1, 0, 0]})
    # spans with nesting: parent 1.0s, child 0.4s -> parent self 0.6s
    p = t.begin(1.0, 0, "outer", "cpu")
    c = t.begin(1.2, 0, "inner", "disk")
    t.end(c, 1.6)
    t.end(p, 2.0)
    # message edges, incl. one undelivered
    e = t.edge_send(0.0, 0, 1, "diff", 100)
    t.edge_recv(e, 0.5)
    t.edge_send(0.1, 0, 1, "diff", 50)  # never delivered
    t.edge_send(0.2, 1, 0, "page_reply", 4096)
    t.edge_recv(2, 0.4)
    t.enabled = False
    return t


@pytest.fixture()
def ct():
    return analytics.ColumnarTrace.from_tracer(_synthetic_tracer())


def test_ingest_counts(ct):
    s = ct.summary()
    assert s["events"] == 9
    assert s["spans"] == 4
    assert s["edges"] == 3
    assert s["pagerows"] == 4  # 2 pages x (send + apply)


def test_report_locks_ranks_contended_lock_first(ct):
    doc = analytics.report_locks(ct)
    assert doc["locks"][0]["lock"] == 7
    top = doc["locks"][0]
    assert top["acquires"] == 3
    assert top["queued_waits"] == 2
    assert top["wait_total"] == pytest.approx(0.3)
    assert top["holder_chain"] == [0, 1, 2]
    locks = {r["lock"]: r for r in doc["locks"]}
    assert locks[1]["wait_total"] == 0.0


def test_report_pages_finds_hot_page_and_homes(ct):
    doc = analytics.report_pages(ct)
    assert doc["pages"][0]["page"] == 3
    hot = doc["pages"][0]
    assert hot["home"] == 0
    assert hot["fetches"] == 2
    assert hot["diff_sends"] == 2
    assert hot["diff_applies"] == 2
    # home 0 served 2 fetches + applied 2 diffs; home 1 served 1 fetch
    assert doc["home_load"] == {"0": 4, "1": 1}
    assert doc["home_imbalance"] == pytest.approx(4 / 2.5)


def test_report_phases_self_time_excludes_children(ct):
    doc = analytics.report_phases(ct)
    by_name = {r["name"]: r["self_time"] for r in doc["by_name"]}
    assert by_name["outer"] == pytest.approx(0.6)
    assert by_name["inner"] == pytest.approx(0.4)
    assert doc["per_node"]["0"]["cpu"] == pytest.approx(0.6)
    assert doc["per_node"]["0"]["disk"] == pytest.approx(0.4)


def test_report_flows_matrix(ct):
    doc = analytics.report_flows(ct)
    assert doc["num_messages"] == 3
    assert doc["undelivered"] == 1
    flows = {(r["src"], r["dst"], r["kind"]): r for r in doc["flows"]}
    diff = flows[(0, 1, "diff")]
    assert diff["count"] == 2
    assert diff["bytes"] == 150
    assert diff["mean_latency"] == pytest.approx(0.5)  # only the delivered one


def test_render_and_run_report_roundtrip(ct):
    for name in analytics.REPORTS:
        doc = analytics.run_report(ct, name)
        text = analytics.render_report(doc)
        assert isinstance(text, str) and text
    with pytest.raises(KeyError):
        analytics.run_report(ct, "nope")


# ----------------------------------------------------------------------
# JSONL ingest through the loader
# ----------------------------------------------------------------------

def _write_trace(tmp_path):
    tracer = _synthetic_tracer()
    path = tmp_path / "trace.jsonl"
    tracer.save(str(path))
    return path


def test_jsonl_roundtrip_matches_tracer_ingest(tmp_path, ct):
    path = _write_trace(tmp_path)
    ct2 = analytics.ColumnarTrace.from_tracer(load_trace(str(path)))
    assert ct2.summary() == ct.summary()
    for name in analytics.REPORTS:
        assert analytics.run_report(ct2, name) == analytics.run_report(ct, name)


@pytest.mark.wallclock
def test_ingest_100k_events_under_one_second(tmp_path):
    """Acceptance bound: >=100k-record trace ingests in <1s."""
    path = tmp_path / "trace.jsonl"
    with open(path, "w") as fh:
        for i in range(100_000):
            fh.write('{"t":%f,"n":%d,"e":"page_fetch","d":{"page":%d,"home":%d}}\n'
                     % (i * 1e-6, i % 8, i % 512, i % 8))
    t0 = time.perf_counter()
    ct = analytics.ColumnarTrace.from_tracer(load_trace(str(path)))
    elapsed = time.perf_counter() - t0
    assert ct.num_events == 100_000
    assert elapsed < 1.0, f"ingest took {elapsed:.2f}s for 100k events"
    # and aggregation over the columns is effectively instant
    t0 = time.perf_counter()
    doc = analytics.report_pages(ct)
    assert time.perf_counter() - t0 < 0.2
    assert doc["num_pages"] == 512


# ----------------------------------------------------------------------
# against a real traced run
# ----------------------------------------------------------------------

def test_reports_on_real_run(tmp_path):
    from repro.analysis.sanitize import traced
    from repro.harness.runner import run_application

    with traced():
        _result, system = run_application(
            "water", "ccl", ClusterConfig.ultra5(num_nodes=4), "test")
    system.tracer.save(str(tmp_path / "trace.jsonl"))
    ct = analytics.ColumnarTrace.from_tracer(load_trace(str(tmp_path / "trace.jsonl")))
    assert ct.num_spans > 0 and ct.num_edges > 0
    locks = analytics.report_locks(ct)
    assert locks["locks"], "water takes per-block locks; report must see them"
    assert locks["locks"][0]["holder_chain"]
    pages = analytics.report_pages(ct)
    assert pages["pages"] and pages["home_load"]
    phases = analytics.report_phases(ct)
    assert set(phases["per_node"]) == {"0", "1", "2", "3"}
    flows = analytics.report_flows(ct)
    assert flows["undelivered"] == 0
    assert flows["total_bytes"] > 0
