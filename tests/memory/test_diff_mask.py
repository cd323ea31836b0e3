"""The stored changed-word mask: edge cases and hostile run tables.

A ``Diff`` keeps a packed bitmap beside its words, so the places where a
bitmap differs from a list of offsets get their own tests: masks whose
last bit is not on a byte boundary, pages smaller than one mask byte and
larger than the default, masks of different lengths meeting in one
merge or one apply, and a seeded fuzz of :func:`decode_diff` -- the one
kernel that builds a mask from bytes it did not write.
"""

import numpy as np
import pytest

from repro.errors import DiffError
from repro.memory import (
    Diff,
    apply_diff,
    create_diff,
    decode_diff,
    encode_diff,
    merge_diffs,
)
from repro.memory.diff import MAX_PAGE_WORDS
from repro.memory.reference import (
    reference_apply_diff,
    reference_create_diff,
    reference_encode_diff,
    reference_merge_diffs,
    reference_runs,
)


def _popcount(d: Diff) -> int:
    return int(np.unpackbits(d.mask).sum())


def _assert_same(d: Diff, ref: Diff) -> None:
    assert d.page == ref.page
    assert np.array_equal(d.offsets, ref.offsets)
    assert np.array_equal(d.words, ref.words)
    assert d.run_count == ref.run_count == len(reference_runs(d))
    assert d.nbytes == ref.nbytes == encode_diff(d).size
    assert d.word_count == _popcount(d)


def _pair(rng: np.random.Generator, page_bytes: int, density: float):
    twin = rng.integers(0, 256, page_bytes, dtype=np.uint8)
    cur = twin.copy()
    changed = rng.random(page_bytes // 4) < density
    cur.view(np.uint32)[changed] ^= np.uint32(0xA5A5A5A5)
    return twin, cur


def test_runs_ending_off_a_byte_boundary():
    words = np.arange(1, 4, dtype=np.uint32)
    d = Diff(2, [(3, words[:2]), (13, words[2:])])
    assert d.mask.size == 2 and d.mask.tolist() == [0b00011000, 0b00000100]
    assert d.offsets.tolist() == [3, 4, 13]
    assert d.run_table().tolist() == [[3, 2], [13, 1]]
    assert d.span() == (3, 13, False)
    assert np.array_equal(encode_diff(d), reference_encode_diff(d))
    _assert_same(decode_diff(encode_diff(d)), d)
    target = np.zeros(64, dtype=np.uint8)
    assert apply_diff(d, target) == 3
    assert target.view(np.uint32).nonzero()[0].tolist() == [3, 4, 13]


@pytest.mark.parametrize("page_bytes", [8, 4096, 16384])
@pytest.mark.parametrize("density", [0.0, 0.03, 0.5, 1.0])
def test_kernels_match_the_oracles_at_every_page_size(page_bytes, density):
    rng = np.random.default_rng(page_bytes + int(100 * density))
    for _ in range(8):
        twin, cur = _pair(rng, page_bytes, density)
        d = create_diff(1, twin, cur)
        _assert_same(d, reference_create_diff(1, twin, cur))
        assert d.mask.size == (0 if d.is_empty else -(-page_bytes // 32))
        packed = encode_diff(d)
        assert np.array_equal(packed, reference_encode_diff(d))
        decoded = decode_diff(packed)
        _assert_same(decoded, d)
        _twin2, cur2 = _pair(rng, page_bytes, density)
        other = create_diff(1, twin, cur2)
        # the decoded diff's mask stops at its last word: both lengths meet
        for a, b in ((d, other), (decoded, other), (other, decoded)):
            _assert_same(merge_diffs(a, b), reference_merge_diffs(a, b))
        for diff in (d, decoded):
            new, ref = twin.copy(), twin.copy()
            assert apply_diff(diff, new) == reference_apply_diff(diff, ref)
            assert np.array_equal(new, ref) and np.array_equal(new, cur)


def test_merge_of_masks_of_different_lengths():
    short = Diff(0, [(1, np.array([11, 12], dtype=np.uint32))])
    long = Diff(0, [(2, np.array([22], dtype=np.uint32)),
                    (40, np.array([33], dtype=np.uint32))])
    assert short.mask.size == 1 and long.mask.size == 6
    for a, b in ((short, long), (long, short)):
        merged = merge_diffs(a, b)
        _assert_same(merged, reference_merge_diffs(a, b))
        assert merged.offsets.tolist() == [1, 2, 40]
    assert merge_diffs(short, long).words.tolist() == [11, 22, 33]
    assert merge_diffs(long, short).words.tolist() == [11, 12, 33]


@pytest.mark.parametrize("target_words", [2, 8, 13, 40])
def test_apply_onto_a_target_shorter_than_the_mask(target_words):
    d = Diff(0, [(1, np.array([5], dtype=np.uint32)),
                 (40, np.array([6], dtype=np.uint32))])
    target = np.zeros(4 * target_words, dtype=np.uint8)
    with pytest.raises(DiffError) as err:
        apply_diff(d, target)
    assert str(err.value) == (
        f"diff words [1, 40] outside page of {target_words} words")
    assert not target.any()
    # padding bits beyond a page that is not a multiple of 8 words are fine
    fits = np.zeros(4 * 41, dtype=np.uint8)
    assert apply_diff(d, fits) == 2
    assert fits.view(np.uint32).nonzero()[0].tolist() == [1, 40]


def test_constructors_reject_what_a_mask_cannot_say():
    one = np.ones(1, dtype=np.uint32)
    for runs in ([(-1, one)], [(5, one), (3, one)], [(5, np.ones(3, np.uint32)), (6, one)],
                 [(MAX_PAGE_WORDS, one)]):
        with pytest.raises(DiffError):
            Diff(0, runs)
    for offsets in ([-1], [3, 3], [4, 2], [MAX_PAGE_WORDS]):
        offsets = np.array(offsets)
        with pytest.raises(DiffError):
            Diff.from_flat(0, offsets, np.ones(offsets.size, dtype=np.uint32))
    with pytest.raises(DiffError):
        Diff.from_flat(0, np.array([1, 2]), one)


# ----------------------------------------------------------------------
# seeded fuzz of decode_diff
# ----------------------------------------------------------------------
def _packed(page: int, table, words) -> np.ndarray:
    """A wire buffer with exactly this run block and words block."""
    table = np.asarray(table, dtype=np.int32).reshape(-1, 2)
    words = np.asarray(words, dtype=np.uint32)
    header = np.array([page, len(words), len(table), 0], dtype=np.uint32)
    return np.concatenate([header.view(np.uint8), table.reshape(-1).view(np.uint8),
                           words.view(np.uint8)])


BAD_TABLES = {
    "unsorted": [[10, 2], [4, 2]],
    "overlapping": [[4, 4], [6, 2]],
    "zero-length": [[4, 0], [9, 4]],
    "negative length": [[4, -2], [9, 6]],
    "negative start": [[-3, 2], [9, 2]],
    "beyond any page": [[MAX_PAGE_WORDS - 1, 4]],
    "start near int32 max": [[2**31 - 2, 4]],
    "lengths short of the word count": [[4, 1], [9, 2]],
}


@pytest.mark.parametrize("what", sorted(BAD_TABLES))
def test_decode_rejects_a_malformed_run_table(what):
    with pytest.raises(DiffError):
        decode_diff(_packed(3, BAD_TABLES[what], np.arange(4)))


def test_decode_rejects_headers_that_disagree_with_the_buffer():
    good = _packed(3, [[4, 2]], [7, 8])
    _assert_same(decode_diff(good), Diff(3, [(4, np.array([7, 8], np.uint32))]))
    for cut in range(good.size):
        with pytest.raises(DiffError):
            decode_diff(good[:cut])
    with pytest.raises(DiffError):
        decode_diff(np.concatenate([good, good[:4]]))
    with pytest.raises(DiffError):  # words but no run says where
        decode_diff(_packed(3, [], [7, 8]))
    with pytest.raises(DiffError):  # runs but no words
        decode_diff(_packed(3, [[4, 0]], []))
    with pytest.raises(DiffError):
        decode_diff(good.view(np.uint32))


def test_decode_fuzz_raises_differror_or_returns_a_consistent_diff():
    rng = np.random.default_rng(20261003)
    decoded = rejected = 0
    for _ in range(600):
        rc = int(rng.integers(0, 6))
        table = np.empty((rc, 2), dtype=np.int64)
        table[:, 0] = rng.integers(-4, 64, rc)
        table[:, 1] = rng.integers(-1, 12, rc)
        if rng.random() < 0.5:  # mostly ascending: reach past the first check
            table[:, 0] = np.sort(table[:, 0]) * 4
        if rng.random() < 0.1 and rc:
            table[rng.integers(rc), rng.integers(2)] = rng.integers(-2**31, 2**31)
        wc = int(table[:, 1].sum())
        if not 0 <= wc <= 64 or rng.random() < 0.2:
            wc = int(rng.integers(0, 40))
        buf = _packed(9, table, rng.integers(0, 2**32, wc, dtype=np.uint32))
        if rng.random() < 0.15:
            buf = buf[: int(rng.integers(0, buf.size + 1))]
        try:
            d = decode_diff(buf)
        except DiffError:
            rejected += 1
            continue
        decoded += 1
        assert d.word_count == _popcount(d) == d.offsets.size
        assert d.run_count == len(reference_runs(d)) == d.run_table().shape[0]
        target = np.zeros(4 * 1024, dtype=np.uint8)
        assert apply_diff(d, target) == d.word_count
    assert decoded > 50 and rejected > 50
