"""A diff's run structure: derived from the stored mask, kept as one integer.

:meth:`Diff.run_table` replaced the ``np.split``-per-diff derivation of
``Diff.runs`` (kept as :func:`repro.memory.reference.reference_runs`)
and feeds the wire encoding, the trace details and the ``runs`` view;
``run_count`` (so ``nbytes``) is an integer taken when the mask is
stored and must therefore never go stale -- which is why ``mask``, and
the ``offsets`` derived from it, are read-only from every constructor.
"""

import numpy as np
import pytest

from repro.memory import (
    Diff,
    apply_diff,
    create_diff,
    decode_diff,
    encode_diff,
    merge_diffs,
)
from repro.memory.diff import DIFF_HEADER_BYTES, RUN_HEADER_BYTES
from repro.memory.reference import reference_runs

PAGE_WORDS = 256


def _diff_of(mask: np.ndarray, rng: np.random.Generator, page: int = 3) -> Diff:
    """The diff whose modified words are exactly ``mask``'s True cells."""
    twin = rng.integers(0, 2**32, PAGE_WORDS, dtype=np.uint32)
    current = twin.copy()
    current[mask] ^= np.uint32(0x5A5A5A5A)
    return create_diff(page, twin.view(np.uint8), current.view(np.uint8))


def _shapes(rng: np.random.Generator):
    """Named word masks: the edge shapes, then seeded random densities."""
    def mask(*cells):
        m = np.zeros(PAGE_WORDS, dtype=bool)
        for cell in cells:
            m[cell] = True
        return m

    yield "empty", mask()
    yield "one word", mask(17)
    yield "first word", mask(0)
    yield "last word", mask(PAGE_WORDS - 1)
    yield "dense page", mask(slice(None))
    yield "dense run", mask(slice(40, 90))
    yield "alternating words", mask(slice(0, None, 2))
    yield "alternating, odd", mask(slice(1, None, 2))
    yield "run to page end", mask(slice(PAGE_WORDS - 5, None))
    yield "both ends", mask(slice(0, 3), slice(PAGE_WORDS - 3, None))
    yield "two words, gap of one", mask(8, 10)
    for density in (0.02, 0.1, 0.5, 0.9, 0.98):
        for k in range(8):
            yield f"random {density} #{k}", rng.random(PAGE_WORDS) < density


def _cases():
    rng = np.random.default_rng(20250928)
    return [(name, _diff_of(m, rng)) for name, m in _shapes(rng)]


CASES = _cases()
IDS = [name for name, _d in CASES]


def _assert_runs_consistent(d: Diff) -> None:
    """Everything ``d`` says about its runs agrees with the oracle."""
    expected = reference_runs(d)
    table = d.run_table()
    assert table.dtype == np.int32 and table.shape == (len(expected), 2)
    assert table.tolist() == [[off, len(words)] for off, words in expected]
    assert d.run_count == len(expected)
    assert d.nbytes == (
        DIFF_HEADER_BYTES + RUN_HEADER_BYTES * len(expected) + 4 * d.word_count
    )
    assert d.nbytes == encode_diff(d).size
    assert len(d.runs) == len(expected)
    for (off, words), (ref_off, ref_words) in zip(d.runs, expected):
        assert off == ref_off and isinstance(off, int)
        assert np.array_equal(words, ref_words)
    first, last, dense = d.span()
    assert dense == (len(expected) == 1)
    if expected:
        assert first == expected[0][0]
        assert last == expected[-1][0] + len(expected[-1][1]) - 1


@pytest.mark.parametrize("name,d", CASES, ids=IDS)
def test_run_table_matches_reference_split(name, d):
    _assert_runs_consistent(d)


@pytest.mark.parametrize("name,d", CASES, ids=IDS)
def test_run_count_is_the_same_asked_first_or_after_the_table(name, d):
    fresh = Diff.from_flat(d.page, d.offsets.copy(), d.words.copy())
    count_first = fresh.run_count
    assert fresh.run_table().shape[0] == count_first == d.run_count
    fresh = Diff.from_flat(d.page, d.offsets.copy(), d.words.copy())
    assert fresh.run_table().shape[0] == fresh.run_count == count_first


@pytest.mark.parametrize("name,d", CASES, ids=IDS)
def test_derived_diffs_report_their_own_run_count(name, d):
    d.run_count  # the source's cache is warm: it must not leak
    _assert_runs_consistent(d.copy())
    _assert_runs_consistent(decode_diff(encode_diff(d)))
    _assert_runs_consistent(Diff(d.page, d.runs))
    rng = np.random.default_rng(len(name))
    for _name, other in CASES[::7]:
        _assert_runs_consistent(merge_diffs(d, other))
        _assert_runs_consistent(merge_diffs(other, d))
    fill = _diff_of(np.ones(PAGE_WORDS, dtype=bool), rng)
    assert merge_diffs(d, fill).run_count == 1
    assert merge_diffs(Diff(d.page), d).run_count == d.run_count


def array_bytes(value) -> int:
    """Bytes of array storage ``value`` keeps alive: an array counts as
    the buffer it (transitively) views, containers as their contents."""
    if isinstance(value, np.ndarray):
        while isinstance(value.base, np.ndarray):
            value = value.base
        return value.nbytes
    if isinstance(value, (list, tuple)):
        return sum(array_bytes(v) for v in value)
    if isinstance(value, dict):
        return sum(array_bytes(v) for v in value.values())
    return 0


def test_reading_nbytes_retains_an_integer_and_nothing_else():
    """The retained-size guard.  A log keeps thousands of diffs alive
    and every one has had its ``nbytes`` read: a diff may hold its words
    and one bit per page word, however it was built and whatever has
    been asked of it since.  (An ``int64`` offset per word read 304 MB
    peak RSS on the ``paper8_ccl`` benchmark workload where the mask
    reads 169 MB; a span tuple cached per diff +12 % on ``chaos4``; a
    run table per diff +3-4 % on the paper apps.)"""
    for i, (name, base) in enumerate(CASES):
        other = CASES[(i + 7) % len(CASES)][1]
        for how, d in _constructors(base, other).items():
            d.nbytes, d.span(), d.run_table(), d.offsets, d.word_offsets(), d.runs
            allowed = 4 * d.word_count + -(-PAGE_WORDS // 8)
            if how == "decode_diff" and not d.is_empty:
                # ``words`` is a zero-copy view: it keeps the packed buffer,
                # wire header and run block included, alive -- not an index
                allowed += DIFF_HEADER_BYTES + RUN_HEADER_BYTES * d.run_count
            held = {slot: array_bytes(getattr(d, slot)) for slot in Diff.__slots__}
            assert sum(held.values()) <= allowed, (
                f"{name} / {how}: a diff of {d.word_count} words retains "
                f"{held} bytes of arrays, allowed {allowed}")
            assert not hasattr(d, "__dict__")


def test_adjacent_runs_handed_to_the_constructor_coalesce():
    d = Diff(0, [(4, np.arange(3, dtype=np.uint32)),
                 (7, np.arange(2, dtype=np.uint32))])
    assert d.run_count == 1 and d.run_table().tolist() == [[4, 5]]
    _assert_runs_consistent(d)


def _constructors(base=None, other=None):
    """The seven ways to get a diff, by name."""
    rng = np.random.default_rng(7)
    if base is None:
        base = _diff_of(rng.random(PAGE_WORDS) < 0.3, rng)
        other = _diff_of(rng.random(PAGE_WORDS) < 0.3, rng)
    return {
        "create_diff": base,
        "__init__": Diff(base.page, base.runs),
        "from_flat": Diff.from_flat(base.page, base.offsets.copy(),
                                    base.words.copy()),
        "merge_diffs": merge_diffs(base, other),
        "merge_diffs, empty side": merge_diffs(base, Diff(base.page)),
        "decode_diff": decode_diff(encode_diff(base)),
        "copy": base.copy(),
    }


@pytest.mark.parametrize("how", sorted(_constructors()))
def test_offsets_are_read_only_and_words_are_not(how):
    d = _constructors()[how]
    count = d.run_count
    with pytest.raises(ValueError, match="read-only"):
        d.offsets[0] = 1
    with pytest.raises(ValueError, match="read-only"):
        d.mask[0] = 0
    assert d.run_count == count
    # words stay writable, and the runs view writes through to them
    d.words[0] = 0xDEADBEEF
    d.runs[0][1][:] = 0xFFFFFFFF
    assert d.words[0] == 0xFFFFFFFF
    target = np.zeros(PAGE_WORDS * 4, dtype=np.uint8)
    assert apply_diff(d, target) == d.word_count
    assert target.view(np.uint32)[d.offsets[0]] == 0xFFFFFFFF


def test_empty_diff_offsets_are_read_only():
    with pytest.raises(ValueError):
        Diff(0).offsets.resize(1)
    assert Diff(0).run_count == 0 and Diff(0).run_table().shape == (0, 2)
