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

A diff is stored *flat*: one sorted, read-only ``offsets`` integer
array naming every modified word and one parallel ``words`` ``uint32``
array with the new contents.  The run structure is derived from
``offsets`` in one place, :meth:`Diff.run_table` -- a ``(start,
length)`` row per coalesced run, built by vectorised code -- and
everything that speaks in runs reads it: the wire encoding, the trace
details of ``early_diff``/``interval_end`` (which keep the table itself,
not a Python list per run) and the test-facing :attr:`Diff.runs` view.
What a diff *retains* of its run structure is integers -- the run count
behind :attr:`Diff.nbytes`, computed at most once because ``offsets``
cannot change afterwards, and the :meth:`Diff.span` bounds -- so the
thousands of diffs a log keeps alive cost no array each.  The hot
kernels -- :func:`create_diff`, :func:`merge_diffs`, :func:`apply_diff`
-- operate on the flat arrays with pure NumPy run algebra and never
loop per word or per run in Python.  :func:`encode_diff` /
:func:`decode_diff` translate between the flat form and the packed
run-length wire/log byte layout; the words block is shared zero-copy
in both directions.

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

_EMPTY_OFFSETS = np.empty(0, dtype=np.int64)
_EMPTY_WORDS = np.empty(0, dtype=np.uint32)
_EMPTY_OFFSETS.setflags(write=False)
_EMPTY_WORDS.setflags(write=False)


class Diff:
    """A summary of modifications to one page.

    ``offsets`` holds the ascending word offsets of every modified word
    and ``words`` the corresponding new ``uint32`` contents; both own
    their data (safe to keep after the source page mutates).  An empty
    pair is a legal "no changes" diff.  ``offsets`` is read-only from
    construction on -- the cached run count and span are functions of
    it -- while ``words`` stays writable.  :attr:`runs` presents the
    same data as ``(word_offset, words)`` pairs, built on first access;
    the per-run arrays are views into :attr:`words`, so mutating them
    (the tests do) stays coherent with the flat form.
    """

    __slots__ = ("page", "offsets", "words", "_runs", "_span", "_run_count")

    def __init__(self, page: int, runs: Optional[List[Tuple[int, np.ndarray]]] = None):
        self.page = page
        self._runs: Optional[List[Tuple[int, np.ndarray]]] = None
        self._span: Optional[Tuple[int, int, bool]] = None
        self._run_count: Optional[int] = None
        if not runs:
            self.offsets = _EMPTY_OFFSETS
            self.words = _EMPTY_WORDS
            return
        off_parts = []
        word_parts = []
        for off, words in runs:
            w = np.ascontiguousarray(words, dtype=np.uint32)
            off_parts.append(np.arange(off, off + len(w), dtype=np.int64))
            word_parts.append(w)
        self.offsets = np.concatenate(off_parts)
        self.offsets.setflags(write=False)
        self.words = np.concatenate(word_parts)

    @classmethod
    def from_flat(cls, page: int, offsets: np.ndarray, words: np.ndarray) -> "Diff":
        """Wrap pre-built flat arrays (must be sorted, strictly increasing).

        The arrays are adopted without copying; callers hand over
        ownership, and ``offsets`` is made read-only.  This is the
        constructor the vectorised kernels use.
        """
        d = cls.__new__(cls)
        d.page = page
        offsets.setflags(write=False)
        d.offsets = offsets
        d.words = words
        d._runs = None
        d._span = None
        d._run_count = None
        return d

    def span(self) -> Tuple[int, int, bool]:
        """``(first, last, dense)`` word-offset bounds, cached.

        ``dense`` is True when the diff is one contiguous run.  The same
        diff is applied more than once on the hot path (home copy and
        twin, plus recovery replays), so the numpy-scalar extraction is
        paid once per diff instead of once per apply.  ``(0, -1, False)``
        for an empty diff.
        """
        span = self._span
        if span is None:
            if self.offsets.size == 0:
                span = (0, -1, False)
            else:
                first = int(self.offsets[0])
                last = int(self.offsets[-1])
                span = (first, last, last - first + 1 == self.offsets.size)
            self._span = span
        return span

    @property
    def word_count(self) -> int:
        """Total modified words across all runs."""
        return int(self.offsets.size)

    @property
    def run_count(self) -> int:
        """Number of coalesced runs of consecutive modified words.

        Derived from ``offsets`` the first time it is asked for and kept:
        every message and log record that carries the diff sums its
        :attr:`nbytes`, several times over one diff's life.
        """
        count = self._run_count
        if count is None:
            offsets = self.offsets
            if offsets.size == 0:
                count = 0
            else:
                count = int(np.count_nonzero(offsets[1:] - offsets[:-1] > 1)) + 1
            self._run_count = count
        return count

    def run_table(self) -> np.ndarray:
        """``(start, length)`` per coalesced run, ascending.

        An ``int32`` array of shape ``(run_count, 2)`` -- the run block
        of the wire layout -- built fresh by vectorised code and not
        retained; the caller owns it.  (The run count it reveals is.)
        """
        offsets = self.offsets
        if offsets.size == 0:
            return np.empty((0, 2), dtype=np.int32)
        # bounds[i]: index of run i's first word; the last entry closes the last run
        ends = (offsets[1:] - offsets[:-1] > 1).nonzero()[0]
        bounds = np.empty(ends.size + 2, dtype=np.intp)
        bounds[0] = 0
        bounds[-1] = offsets.size
        np.add(ends, 1, out=bounds[1:-1])
        table = np.empty((ends.size + 1, 2), dtype=np.int32)
        table[:, 0] = offsets[bounds[:-1]]
        table[:, 1] = bounds[1:] - bounds[:-1]
        self._run_count = ends.size + 1
        return table

    @property
    def nbytes(self) -> int:
        """Encoded wire/log size in bytes."""
        return (
            DIFF_HEADER_BYTES
            + RUN_HEADER_BYTES * self.run_count
            + WORD_SIZE * self.word_count
        )

    @property
    def is_empty(self) -> bool:
        """True when no words changed."""
        return self.offsets.size == 0

    @property
    def runs(self) -> List[Tuple[int, np.ndarray]]:
        """Run-length view: ``(word_offset, words)`` pairs, ascending."""
        if self._runs is None:
            words = self.words
            runs = []
            lo = 0
            for start, length in self.run_table().tolist():
                runs.append((start, words[lo : lo + length]))
                lo += length
            self._runs = runs
        return self._runs

    def word_offsets(self) -> np.ndarray:
        """All modified word offsets, ascending (for overlap checks)."""
        return self.offsets

    def copy(self) -> "Diff":
        """Deep copy (the recovery path replays diffs multiple times)."""
        d = Diff.from_flat(self.page, self.offsets.copy(), self.words.copy())
        d._run_count = self._run_count
        d._span = self._span
        return d

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Diff(page={self.page}, words={self.word_count}, "
            f"runs={self.run_count})"
        )


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
    tw = _as_words(twin)
    cw = _as_words(current)
    changed = (tw != cw).nonzero()[0]
    if changed.size == 0:
        return Diff(page)
    # fancy indexing copies, so the diff owns its words
    return Diff.from_flat(
        page, changed.astype(np.int64, copy=False), cw[changed]
    )


def merge_diffs(first: Diff, second: Diff) -> Diff:
    """Combine two diffs of one page; ``second``'s words win on overlap.

    Needed when a page produces two diffs within one interval: an
    *early* diff created when a write-invalidation notice hits a dirty
    page mid-interval, followed by a normal end-of-interval diff after
    the page was refetched and written again.  The log keeps one merged
    diff per (page, interval) so recovery lookups stay unambiguous.

    Pure run algebra on the flat arrays: concatenate, stable-sort by
    offset, and keep the last entry of every duplicate offset (which is
    ``second``'s, because it was concatenated after ``first``).
    """
    if first.page != second.page:
        raise DiffError(
            f"cannot merge diffs of pages {first.page} and {second.page}"
        )
    if first.is_empty:
        return second.copy()
    if second.is_empty:
        return first.copy()
    offsets = np.concatenate([first.offsets, second.offsets])
    words = np.concatenate([first.words, second.words])
    order = np.argsort(offsets, kind="stable")
    offsets = offsets[order]
    words = words[order]
    keep = np.empty(offsets.size, dtype=bool)
    keep[-1] = True
    np.not_equal(offsets[1:], offsets[:-1], out=keep[:-1])
    return Diff.from_flat(first.page, offsets[keep], words[keep])


def apply_diff(diff: Diff, target: np.ndarray) -> int:
    """Write the diff's words into ``target`` (1-D uint8); returns words applied."""
    tw = _as_words(target)
    first, last, dense = diff.span()
    if last < 0:
        return 0
    if first < 0 or last >= tw.size:
        raise DiffError(
            f"diff words [{first}, {last}] outside page of {tw.size} words"
        )
    if dense:
        # one dense run (the common shape for array-section writes):
        # a straight slice copy beats fancy indexing
        tw[first : last + 1] = diff.words
        return last - first + 1
    tw[diff.offsets] = diff.words
    return int(diff.offsets.size)


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
    wc = diff.word_count
    if wc == 0:
        header = np.array([diff.page, 0, 0, 0], dtype=np.uint32)
        return header.view(np.uint8).copy()
    run_table = diff.run_table()
    header = np.array([diff.page, wc, run_table.shape[0], 0], dtype=np.uint32)
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
    ``buf``; the offsets are rebuilt from the run table with one
    ``repeat``/``cumsum`` pass.
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
    if wc == 0:
        return Diff(page)
    run_end = DIFF_HEADER_BYTES + RUN_HEADER_BYTES * rc
    run_table = buf[DIFF_HEADER_BYTES:run_end].view(np.int32).reshape(rc, 2)
    starts = run_table[:, 0].astype(np.int64)
    lengths = run_table[:, 1].astype(np.int64)
    if int(lengths.sum()) != wc:
        raise DiffError("malformed packed diff: run lengths != word count")
    # offsets = for each run, start + 0..length-1, concatenated
    base = np.repeat(starts - np.concatenate(([0], np.cumsum(lengths[:-1]))), lengths)
    offsets = base + np.arange(wc, dtype=np.int64)
    words = buf[run_end:].view(np.uint32)
    return Diff.from_flat(page, offsets, words)
