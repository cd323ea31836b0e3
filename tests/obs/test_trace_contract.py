"""Golden pin of what a traced run leaves behind, byte for byte.

``golden_trace_contract.json`` holds, for ``sor`` and ``shallow`` at
test scale on 4 nodes under ``ccl`` and ``ml`` with tracing on (plus a
false-sharing lock program -- the ``early-diff`` preset of
:mod:`repro.analysis.programs`, the only place an ``early_diff`` event is
emitted), the sha256 of ``trace.jsonl`` (events + spans + edges) and of
the Chrome trace document as ``write_chrome_trace`` writes it, the
critical path's length and per-category seconds, and the flush-overlap
totals.  How the trace *stores* a diff's run table, and how the
critical-path walk finds its spans, may change; what they emit may not.
Floats round-trip exactly through JSON, so the comparison is ``==``.

Regenerate (only when the trace schema is *meant* to change) with::

    PYTHONPATH=src python tests/obs/test_trace_contract.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro import ClusterConfig, DsmSystem, make_app, make_hooks_factory
from repro.analysis.programs import early_diff, program_system
from repro.harness.scales import app_kwargs
from repro.obs import chrome_trace, critical_path, flush_overlap, summarize_path
from repro.sim.trace import Ev, Tracer

GOLDEN = Path(__file__).with_name("golden_trace_contract.json")

CASES = [(app, protocol) for app in ("sor", "shallow") for protocol in ("ccl", "ml")]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _entry(tracer: Tracer) -> dict:
    path = critical_path(tracer)
    overlap = flush_overlap(tracer)
    document = json.dumps(chrome_trace(tracer), separators=(",", ":"))
    return {
        "events": len(tracer.events),
        "spans": len(tracer.spans),
        "edges": len(tracer.edges),
        "trace_jsonl_sha256": _sha256(tracer.to_jsonl()),
        "chrome_trace_sha256": _sha256(document),
        "critical_segments": len(path),
        "critical_by_category": summarize_path(path),
        "flushes": len(overlap.flushes),
        "total_flush_s": overlap.total_flush_s,
        "hidden_s": overlap.hidden_s,
        "sync_flush_s": overlap.sync_flush_s,
    }


def _traced(system_factory) -> Tracer:
    tracer = Tracer(enabled=True)
    try:
        assert system_factory(tracer).run().completed
    finally:
        tracer.enabled = False
    return tracer


def _app_trace(app: str, protocol: str) -> Tracer:
    return _traced(lambda tracer: DsmSystem(
        make_app(app, **app_kwargs(app, "test")),
        ClusterConfig.ultra5(num_nodes=4),
        make_hooks_factory(protocol), protocol_name=protocol, tracer=tracer,
    ))


def _early_diff_trace() -> Tracer:
    return _traced(lambda tracer: program_system(early_diff(), tracer=tracer))


def generate() -> dict:
    golden = {f"{app}/{protocol}": _entry(_app_trace(app, protocol))
              for app, protocol in CASES}
    golden["early-diff/ccl"] = _entry(_early_diff_trace())
    return golden


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("app,protocol", CASES)
def test_traced_run_matches_golden(app, protocol, golden):
    # json round trip: the golden's floats were read back from JSON
    entry = json.loads(json.dumps(_entry(_app_trace(app, protocol))))
    assert entry == golden[f"{app}/{protocol}"]


def test_early_diff_trace_matches_golden(golden):
    tracer = _early_diff_trace()
    early = tracer.filter(Ev.EARLY_DIFF)
    assert len(early) == 1, "the program no longer provokes an early diff"
    assert json.loads(early[0].to_json())["d"]["runs"] == [[8, 3], [20, 3], [31, 3]]
    entry = json.loads(json.dumps(_entry(tracer)))
    assert entry == golden["early-diff/ccl"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(generate(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
