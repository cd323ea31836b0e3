"""Golden pin of a diff's wire bytes and of whole log segments.

``golden_diff_bytes.json`` holds the sha256 of ``encode_diff`` for each
of :mod:`tests.memory.test_run_table`'s 51 seeded shapes, one sha256 per
shape over its ``merge_diffs`` result with every shape (in order, the
row's shape first), and -- for ``water/ccl`` and ``shallow/ml`` at test
scale on 4 nodes -- per node the segment count, byte total and sha256
of every ``LogSegment.encoded()`` in issue order.  What a ``Diff``
*stores* may change; what it encodes to, merges to and logs may not.

Regenerate (only when the wire or log format is *meant* to change) with::

    PYTHONPATH=src:. python tests/memory/test_diff_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro import ClusterConfig, DsmSystem, make_app, make_hooks_factory
from repro.harness.scales import app_kwargs
from repro.memory import encode_diff, merge_diffs
from tests.memory.test_run_table import CASES

GOLDEN = Path(__file__).with_name("golden_diff_bytes.json")

RUNS = [("water", "ccl"), ("shallow", "ml")]


def _shape_digests() -> dict:
    return {name: hashlib.sha256(encode_diff(d).tobytes()).hexdigest()
            for name, d in CASES}


def _merge_row_digest(d) -> str:
    h = hashlib.sha256()
    for _name, other in CASES:
        h.update(encode_diff(merge_diffs(d, other)).tobytes())
    return h.hexdigest()


def _segment_digests(app: str, protocol: str) -> dict:
    system = DsmSystem(
        make_app(app, **app_kwargs(app, "test")),
        ClusterConfig.ultra5(num_nodes=4),
        make_hooks_factory(protocol), protocol_name=protocol,
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
