"""Golden pin of what a traced run leaves behind, byte for byte.

``golden_trace_contract.json`` holds, for ``sor`` and ``shallow`` at
test scale on 4 nodes under ``ccl`` and ``ml`` with tracing on (plus a
false-sharing lock program, the only place an ``early_diff`` event is
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

import numpy as np
import pytest

from repro import ClusterConfig, DsmSystem, make_app, make_hooks_factory
from repro.harness.scales import app_kwargs
from repro.obs import chrome_trace, critical_path, flush_overlap, summarize_path
from repro.sim.trace import Ev, Tracer
from tests.dsm.conftest import MiniApp, small_config

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


def _reread(dsm):
    yield from dsm.read("x", 0, 4)


def _rewrite(dsm):
    yield from dsm.write("x", 40, 42)
    dsm.arr("x")[40:42] = 3


#: What rank 1 does to the early-diffed page once it holds the lock:
#: nothing (the traced program), read it back, or write it again.
REACCESS = {"reread": _reread, "rewrite": _rewrite}


def early_diff_app(reaccess=None) -> MiniApp:
    """Rank 1 dirties a page, then acquires the lock rank 0 wrote the
    same page under: the write notice hits a dirty page (early diff).
    ``reaccess`` (a :data:`REACCESS` value) runs on rank 1 under the
    lock, touching the page again in the interval that flushed it."""

    def alloc(space, nprocs):
        space.allocate("x", (64,), np.int32, init=np.zeros(64, np.int32))

    def program(dsm):
        if dsm.rank == 0:
            yield from dsm.acquire(1)
            yield from dsm.write("x", 0, 4)
            dsm.arr("x")[0:4] = 1
            yield from dsm.release(1)
        elif dsm.rank == 1:
            yield from dsm.compute(0.01)
            for lo in (8, 20, 31):  # three runs in the early diff
                yield from dsm.write("x", lo, lo + 3)
                dsm.arr("x")[lo:lo + 3] = 2
            yield from dsm.acquire(1)
            if reaccess is not None:
                yield from reaccess(dsm)
            yield from dsm.release(1)
        yield from dsm.barrier()

    return MiniApp(alloc, program, lambda space, nprocs: [2] * space.npages)


def early_diff_system(protocol="ccl", reaccess=None, **system_kwargs) -> DsmSystem:
    """:func:`early_diff_app` on 3 small-page nodes under ``protocol``."""
    return DsmSystem(
        early_diff_app(reaccess), small_config(3),
        make_hooks_factory(protocol), protocol_name=protocol,
        **system_kwargs,
    )


def _early_diff_trace() -> Tracer:
    return _traced(lambda tracer: early_diff_system(tracer=tracer))


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
