"""Work-count guard: a logged diff retains its words, not an index per word.

The companion of ``test_trace_workcount.py`` for memory.  Bytes resident
depend on the allocator; the array bytes reachable from a deterministic
run's live diffs do not.  After a 4-node ``shallow/ccl`` run at test
scale every diff still held by a node's log is walked and the bytes of
every slot other than ``words`` -- whatever the diff keeps to say
*which* words changed -- are divided by the words modified.  With the
packed changed-word mask that is 128 B a diff, 0.25 B a word here; the
``int64`` offset per word it replaced read exactly 8.0, which was 134 MB
of the ``paper8_ccl`` benchmark workload's 304 MB peak RSS.
"""

import dataclasses

from repro import ClusterConfig, DsmSystem, make_app, make_hooks_factory
from repro.harness.scales import app_kwargs
from repro.memory import Diff
from tests.memory.test_run_table import array_bytes

#: Index bytes a live logged diff may retain per modified word (measured
#: 0.253: one 128 B mask per diff, 300 diffs of 507 words on average; a
#: ``uint16`` offset per word would read 2.0).
BUDGET_PER_WORD = 0.3


def _diffs_in(value):
    """Every ``Diff`` reachable from a log record's fields."""
    if isinstance(value, Diff):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _diffs_in(item)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from _diffs_in(getattr(value, field.name))


def test_index_bytes_per_modified_word_of_live_logged_diffs():
    system = DsmSystem(
        make_app("shallow", **app_kwargs("shallow", "test")),
        ClusterConfig.ultra5(num_nodes=4),
        make_hooks_factory("ccl"), protocol_name="ccl",
    )
    assert system.run().completed
    live = {}
    for node in system.nodes:
        for record in node.hooks.log.all_records:
            for d in _diffs_in(record):
                live[id(d)] = d
    assert len(live) >= 200, "the run no longer logs its diffs"
    words = sum(d.word_count for d in live.values())
    by_slot = {
        slot: sum(array_bytes(getattr(d, slot)) for d in live.values())
        for slot in Diff.__slots__ if slot != "words"
    }
    assert sum(array_bytes(d.words) for d in live.values()) == 4 * words
    assert not any(hasattr(d, "__dict__") for d in live.values())
    per_word = sum(by_slot.values()) / words
    worst = max(by_slot, key=by_slot.get)
    assert per_word <= BUDGET_PER_WORD, (
        f"{len(live)} live logged diffs of {words} modified words retain "
        f"{per_word:.2f} index bytes per word, budget {BUDGET_PER_WORD}; "
        f"slot `{worst}` holds {by_slot[worst]} of {sum(by_slot.values())} "
        "bytes -- is something per modified word kept on the diff again?"
    )
