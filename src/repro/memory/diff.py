"""Word-granularity diffs (summaries of modifications).

TreadMarks-style DSMs propagate writes as *diffs*: a run-length encoding
of the 4-byte words that differ between a page's *twin* (the pristine
copy made before the first write of an interval) and its current
contents.  Multiple concurrent writers of one page are merged by
applying their diffs to the home copy; for data-race-free programs the
touched word sets are disjoint, so application order between concurrent
diffs does not matter.

The encoded size (:attr:`Diff.nbytes`) follows the classic wire format:
a fixed header plus, per run, an (offset, length) pair and the run's
words.  Log-size statistics in the evaluation are sums of these real
encoded sizes.

Representation
--------------

A diff *stores* two arrays: ``words``, the new ``uint32`` contents of
every modified word in ascending offset order, and ``mask``, a
read-only packed bitmap (``np.packbits``, one bit per word of the page,
128 B for a 4 KB page) whose set bits say which words those are.  A log
keeps thousands of diffs alive, so a diff costs its words plus an
eighth of a byte per page word -- not an integer offset beside every
word.  The run count behind :attr:`Diff.nbytes` is an integer taken
from the same comparison that produced the mask.  Everything else a
diff can say about itself is *derived* from the mask on demand and
never retained: :attr:`Diff.offsets` (one integer per modified word),
:meth:`Diff.run_table` (a ``(start, length)`` row per coalesced run --
the wire encoding's run block, the trace details of
``early_diff``/``interval_end`` and the test-facing :attr:`Diff.runs`
view all read it) and :meth:`Diff.span`.  The hot kernels work on the
unpacked mask with whole-page NumPy operations and never loop per word
or per run in Python: :func:`create_diff` is compare, mask-index,
``packbits``; :func:`apply_diff` is ``unpackbits``, mask-assign;
:func:`merge_diffs` is two mask-assigns into a scratch page and the OR
of the masks.  :func:`encode_diff` / :func:`decode_diff` translate
between the stored form and the packed run-length wire/log byte layout;
the words block is shared zero-copy in both directions.

The pre-vectorisation implementations are preserved verbatim in
:mod:`repro.memory.reference` and serve as oracles for the property
tests and as the baseline the microbenchmarks measure speedups against.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..config import WORD_SIZE
from ..errors import DiffError

__all__ = [
    "Diff",
    "create_diff",
    "apply_diff",
    "merge_diffs",
    "encode_diff",
    "decode_diff",
]

#: Encoded bytes for the diff header (page id, word count, run count, flags).
DIFF_HEADER_BYTES = 16
#: Encoded bytes per run header (word offset, run length).
RUN_HEADER_BYTES = 8

#: Largest word offset a diff may name (a 4 MB page).  Bounds what a
#: corrupt run table can make :func:`decode_diff` allocate.
MAX_PAGE_WORDS = 1 << 20

_EMPTY_MASK = np.empty(0, dtype=np.uint8)
_EMPTY_WORDS = np.empty(0, dtype=np.uint32)
_EMPTY_MASK.setflags(write=False)
_EMPTY_WORDS.setflags(write=False)


def _bits_of_runs(table: np.ndarray) -> np.ndarray:
    """One bool per word up to the last run's end, True inside a run.

    ``table`` is a non-empty ``(start, length)`` array; anything but
    ascending, disjoint, non-empty runs inside ``[0, MAX_PAGE_WORDS)``
    raises :class:`DiffError`.  Adjacent runs are legal and coalesce.
    """
    starts = table[:, 0]
    counts = np.empty(2 * len(table), dtype=np.int64)  # gap, run, gap, run, ...
    counts[1::2] = table[:, 1]
    ends = counts[1::2] + starts
    counts[0] = starts[0]
    counts[2::2] = starts[1:] - ends[:-1]
    if counts.min() < 0 or counts[1::2].min() < 1 or ends[-1] > MAX_PAGE_WORDS:
        raise DiffError(
            "malformed diff runs: not ascending, disjoint and non-empty "
            f"below word {MAX_PAGE_WORDS}"
        )
    inside = np.zeros(counts.size, dtype=bool)
    inside[1::2] = True
    return np.repeat(inside, counts)


class Diff:
    """A summary of modifications to one page.

    ``mask`` is the packed changed-word bitmap (bit ``i``, in
    ``np.packbits`` order, set when word ``i`` is modified; zero-padded
    to a whole byte) and ``words`` the new ``uint32`` contents of those
    words in ascending order; both own their data (safe to keep after
    the source page mutates).  An empty pair is a legal "no changes"
    diff.  ``mask`` is read-only from construction on -- ``run_count``
    is a function of it -- while ``words`` stays writable.
    :attr:`offsets`, :meth:`run_table`, :attr:`runs` and :meth:`span`
    are derived from the mask each time they are asked for; the per-run
    arrays of :attr:`runs` are views into :attr:`words`, so mutating
    them (the tests do) stays coherent with the stored form.
    """

    __slots__ = ("page", "mask", "words", "run_count")

    def __init__(self, page: int, runs: Optional[List[Tuple[int, np.ndarray]]] = None):
        self.page = page
        if not runs:
            self.mask = _EMPTY_MASK
            self.words = _EMPTY_WORDS
            #: Number of coalesced runs of consecutive modified words.
            self.run_count = 0
            return
        parts = [np.ascontiguousarray(words, dtype=np.uint32) for _off, words in runs]
        table = np.array([(off, len(w)) for (off, _words), w in zip(runs, parts)])
        self._adopt(_bits_of_runs(table), np.concatenate(parts))

    def _adopt(self, bits: np.ndarray, words: np.ndarray) -> None:
        """Store ``words`` (not copied) as the contents of ``bits``'s True cells."""
        self.mask = np.packbits(bits)
        self.mask.setflags(write=False)
        self.words = words
        # a run starts wherever a changed word follows an unchanged one
        self.run_count = int(np.count_nonzero(bits[1:] > bits[:-1])) + bool(bits[0])

    @classmethod
    def from_flat(cls, page: int, offsets: np.ndarray, words: np.ndarray) -> "Diff":
        """Build from sorted, strictly increasing word ``offsets`` and
        their parallel ``words`` (adopted without copying)."""
        if offsets.size != words.size:
            raise DiffError(f"{offsets.size} offsets for {words.size} words")
        if offsets.size == 0:
            return cls(page)
        one_word_runs = np.stack((offsets, np.ones_like(offsets)), axis=1)
        return _diff_of_bits(page, _bits_of_runs(one_word_runs), words)

    @property
    def offsets(self) -> np.ndarray:
        """Ascending offsets of the modified words (derived, read-only)."""
        offsets = np.unpackbits(self.mask).nonzero()[0]
        offsets.setflags(write=False)
        return offsets

    def span(self) -> Tuple[int, int, bool]:
        """``(first, last, dense)`` word-offset bounds.

        ``dense`` is True when the diff is one contiguous run;
        ``(0, -1, False)`` for an empty diff.
        """
        offsets = self.offsets
        if offsets.size == 0:
            return (0, -1, False)
        return (int(offsets[0]), int(offsets[-1]), self.run_count == 1)

    @property
    def word_count(self) -> int:
        """Total modified words across all runs."""
        return self.words.size

    def run_table(self) -> np.ndarray:
        """``(start, length)`` per coalesced run, ascending (:func:`runs_of_mask`)."""
        return runs_of_mask(self.mask, self.run_count)

    @property
    def nbytes(self) -> int:
        """Encoded wire/log size in bytes."""
        return (
            DIFF_HEADER_BYTES
            + RUN_HEADER_BYTES * self.run_count
            + WORD_SIZE * self.words.size
        )

    @property
    def is_empty(self) -> bool:
        """True when no words changed."""
        return self.words.size == 0

    @property
    def runs(self) -> List[Tuple[int, np.ndarray]]:
        """Run-length view: ``(word_offset, words)`` pairs, ascending."""
        words = self.words
        runs = []
        lo = 0
        for start, length in self.run_table().tolist():
            runs.append((start, words[lo : lo + length]))
            lo += length
        return runs

    def word_offsets(self) -> np.ndarray:
        """All modified word offsets, ascending (for overlap checks)."""
        return self.offsets

    def copy(self) -> "Diff":
        """A diff with its own ``words`` (the recovery path replays diffs
        multiple times); the immutable mask is shared."""
        d = Diff.__new__(Diff)
        d.page = self.page
        d.mask = self.mask
        d.words = self.words.copy()
        d.run_count = self.run_count
        return d

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Diff(page={self.page}, words={self.word_count}, "
            f"runs={self.run_count})"
        )


def runs_of_mask(mask: np.ndarray, run_count: int) -> np.ndarray:
    """The run table of a diff's ``mask`` and ``run_count``.

    An ``int32`` array of shape ``(run_count, 2)`` -- the run block of
    the wire layout -- built fresh by vectorised code and not retained;
    the caller owns it.  A trace keeps the two arguments, not the diff.
    """
    if run_count == 0:
        return np.empty((0, 2), dtype=np.int32)
    bits = np.unpackbits(mask)
    # the zero-padded bit string flips at every run start and run end
    flips = np.empty(bits.size + 1, dtype=bool)
    flips[0] = bits[0]
    flips[-1] = bits[-1]
    np.not_equal(bits[1:], bits[:-1], out=flips[1:-1])
    table = flips.nonzero()[0].reshape(-1, 2).astype(np.int32)
    table[:, 1] -= table[:, 0]
    return table


def _diff_of_bits(page: int, bits: np.ndarray, words: np.ndarray) -> Diff:
    """The diff whose modified words are ``bits``'s True cells (the
    constructor the kernels use; ``words`` is adopted, not copied)."""
    d = Diff.__new__(Diff)
    d.page = page
    d._adopt(bits, words)
    return d


def _as_words(buf: np.ndarray) -> np.ndarray:
    if buf.dtype != np.uint8 or buf.ndim != 1:
        raise DiffError(f"expected 1-D uint8 page buffer, got {buf.dtype}/{buf.ndim}-D")
    if len(buf) % WORD_SIZE:
        raise DiffError(f"page length {len(buf)} not a multiple of {WORD_SIZE}")
    return buf.view(np.uint32)


def create_diff(page: int, twin: np.ndarray, current: np.ndarray) -> Diff:
    """Compare ``twin`` against ``current`` and encode the changed words.

    Both arguments are 1-D ``uint8`` buffers of equal page-sized length.
    Runs of consecutive changed words are coalesced, exactly as the
    TreadMarks diff encoder does, which is what makes small scattered
    writes cheap to ship.
    """
    if twin.shape != current.shape:
        raise DiffError(f"twin/current shape mismatch: {twin.shape} vs {current.shape}")
    cw = _as_words(current)
    changed = _as_words(twin) != cw
    words = cw[changed]  # mask indexing copies, so the diff owns its words
    if words.size == 0:
        return Diff(page)
    return _diff_of_bits(page, changed, words)


def merge_diffs(first: Diff, second: Diff) -> Diff:
    """Combine two diffs of one page; ``second``'s words win on overlap.

    Needed when a page produces two diffs within one interval: an
    *early* diff created when a write-invalidation notice hits a dirty
    page mid-interval, followed by a normal end-of-interval diff after
    the page was refetched and written again.  The log keeps one merged
    diff per (page, interval) so recovery lookups stay unambiguous.

    Both diffs are written onto one scratch page, ``first`` first, and
    the words under the OR of the masks are read back.
    """
    if first.page != second.page:
        raise DiffError(
            f"cannot merge diffs of pages {first.page} and {second.page}"
        )
    if first.is_empty:
        return second.copy()
    if second.is_empty:
        return first.copy()
    nbits = 8 * max(first.mask.size, second.mask.size)
    in_first = np.unpackbits(first.mask, count=nbits).view(np.bool_)
    in_second = np.unpackbits(second.mask, count=nbits).view(np.bool_)
    scratch = np.empty(nbits, dtype=np.uint32)
    scratch[in_first] = first.words
    scratch[in_second] = second.words
    merged = in_first | in_second
    return _diff_of_bits(first.page, merged, scratch[merged])


def apply_diff(diff: Diff, target: np.ndarray) -> int:
    """Write the diff's words into ``target`` (1-D uint8); returns words applied."""
    tw = _as_words(target)
    words = diff.words
    if words.size == 0:
        return 0
    bits = np.unpackbits(diff.mask).view(np.bool_)
    if bits.size > tw.size:
        # longer than the page: byte padding, or words the page lacks
        if bits[tw.size :].any():
            first, last, _dense = diff.span()
            raise DiffError(
                f"diff words [{first}, {last}] outside page of {tw.size} words"
            )
        bits = bits[: tw.size]
    tw[: bits.size][bits] = words
    return words.size


# ----------------------------------------------------------------------
# packed wire/log encoding
# ----------------------------------------------------------------------

def encode_diff(diff: Diff) -> np.ndarray:
    """Pack a diff into its wire/log byte layout (a 1-D ``uint8`` array).

    Layout (little-endian, exactly :attr:`Diff.nbytes` bytes)::

        uint32 page | uint32 word_count | uint32 run_count | uint32 flags
        int32 (start, length) per run
        uint32 word per modified word

    The run block is :meth:`Diff.run_table` and the words block is the
    diff's ``words`` array viewed as bytes (no per-word Python work
    anywhere).
    """
    run_table = diff.run_table()
    header = np.array(
        [diff.page, diff.word_count, run_table.shape[0], 0], dtype=np.uint32
    )
    return np.concatenate(
        [
            header.view(np.uint8),
            run_table.reshape(-1).view(np.uint8),
            np.ascontiguousarray(diff.words).view(np.uint8),
        ]
    )


def decode_diff(buf: np.ndarray) -> Diff:
    """Unpack :func:`encode_diff` output back into a :class:`Diff`.

    The words array of the returned diff is a zero-copy view into
    ``buf``; the mask is rebuilt from the run table, and a buffer whose
    size, word count or run table is inconsistent raises
    :class:`DiffError`.
    """
    if buf.dtype != np.uint8 or buf.ndim != 1 or buf.size < DIFF_HEADER_BYTES:
        raise DiffError("malformed packed diff: bad buffer")
    header = buf[:DIFF_HEADER_BYTES].view(np.uint32)
    page, wc, rc = int(header[0]), int(header[1]), int(header[2])
    expected = DIFF_HEADER_BYTES + RUN_HEADER_BYTES * rc + WORD_SIZE * wc
    if buf.size != expected:
        raise DiffError(
            f"malformed packed diff: {buf.size} bytes, header implies {expected}"
        )
    if wc == 0 and rc == 0:
        return Diff(page)
    run_end = DIFF_HEADER_BYTES + RUN_HEADER_BYTES * rc
    run_table = buf[DIFF_HEADER_BYTES:run_end].view(np.int32).reshape(rc, 2)
    if int(run_table[:, 1].sum(dtype=np.int64)) != wc:
        raise DiffError("malformed packed diff: run lengths != word count")
    return _diff_of_bits(page, _bits_of_runs(run_table), buf[run_end:].view(np.uint32))
