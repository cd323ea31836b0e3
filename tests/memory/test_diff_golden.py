"""Golden pin of a diff's wire bytes and of whole log segments.

``golden_diff_bytes.json`` holds the sha256 of ``encode_diff`` for each
of :mod:`tests.memory.test_run_table`'s 51 seeded shapes, one sha256 per
shape over its ``merge_diffs`` result with every shape (in order, the
row's shape first), and -- for every logging-hooks configuration in
:data:`RUNS`, at test scale on 4 nodes -- per node the segment count,
byte total and sha256 of every ``LogSegment.encoded()`` in issue order.
What a ``Diff`` *stores* may change; what it encodes to, merges to and
logs may not.

Regenerate (only when the wire or log format is *meant* to change) with::

    PYTHONPATH=src:. python tests/memory/test_diff_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro import ClusterConfig, DsmSystem, make_app, make_hooks_factory
from repro.core import CCL_NO_OVERLAP, CCL_PAPER, PolicyLogging
from repro.harness.scales import app_kwargs
from repro.memory import encode_diff, merge_diffs
from tests.memory.test_run_table import CASES

GOLDEN = Path(__file__).with_name("golden_diff_bytes.json")

#: Every logging-hooks configuration, keyed ``(app, protocol[-variant])``:
#: what sets the run apart from ``make_hooks_factory(protocol)`` on the
#: app's default homes.
RUNS = {
    ("water", "ccl"): {},
    ("shallow", "ml"): {},
    ("water", "failover"): {"replication": 2},
    ("water", "adaptive"): {},
    ("water", "adaptive-tight"): {"recovery_budget": 1e-6},
    # paper-faithful mode: writer-aligned homes, no home-write diffs
    ("shallow", "ccl-paper"): {
        "hooks": lambda _i: PolicyLogging(CCL_PAPER),
        "home_policy": "aligned",
    },
    # ablation A1: CCL's log flushed synchronously at sync entry
    ("water", "ccl-no-overlap"): {
        "hooks": lambda _i: PolicyLogging(CCL_NO_OVERLAP),
    },
}


def _shape_digests() -> dict:
    return {name: hashlib.sha256(encode_diff(d).tobytes()).hexdigest()
            for name, d in CASES}


def _merge_row_digest(d) -> str:
    h = hashlib.sha256()
    for _name, other in CASES:
        h.update(encode_diff(merge_diffs(d, other)).tobytes())
    return h.hexdigest()


def _segment_digests(app: str, variant: str) -> dict:
    spec = RUNS[app, variant]
    protocol = variant.split("-")[0]
    kwargs = app_kwargs(app, "test")
    if "home_policy" in spec:
        kwargs["home_policy"] = spec["home_policy"]
    hooks = spec.get("hooks") or make_hooks_factory(
        protocol, recovery_budget=spec.get("recovery_budget"))
    system = DsmSystem(
        make_app(app, **kwargs), ClusterConfig.ultra5(num_nodes=4),
        hooks, protocol_name=protocol, replication=spec.get("replication", 1),
    )
    assert system.run().completed
    out = {}
    for node in system.nodes:
        h = hashlib.sha256()
        segments = node.hooks.log._segments
        for seg in segments:
            encoded = seg.encoded()
            assert len(encoded) == seg.nbytes
            h.update(encoded)
        out[str(node.id)] = {
            "segments": len(segments),
            "bytes": sum(s.nbytes for s in segments),
            "sha256": h.hexdigest(),
        }
    return out


def generate() -> dict:
    return {
        "shapes": _shape_digests(),
        "merges": {name: _merge_row_digest(d) for name, d in CASES},
        "segments": {f"{app}/{protocol}": _segment_digests(app, protocol)
                     for app, protocol in RUNS},
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_every_shape_encodes_to_the_pinned_bytes(golden):
    assert len(CASES) == 51
    assert _shape_digests() == golden["shapes"]


def test_every_pairwise_merge_encodes_to_the_pinned_bytes(golden):
    assert {name: _merge_row_digest(d) for name, d in CASES} == golden["merges"]


@pytest.mark.parametrize("app,protocol", RUNS)
def test_every_log_segment_encodes_to_the_pinned_bytes(app, protocol, golden):
    assert _segment_digests(app, protocol) == golden["segments"][f"{app}/{protocol}"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(generate(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
