"""Pre-vectorisation diff kernels, kept as correctness oracles.

These are the original Python-loop implementations of the diff hot
path, preserved verbatim when :mod:`repro.memory.diff` was rewritten as
flat NumPy run algebra.  They exist for two reasons:

* the property tests assert the vectorised kernels are byte-identical
  to these references on randomised twin/current pairs;
* the microbenchmarks (``benchmarks/bench_micro.py`` / ``repro perf``)
  measure the vectorised kernels' speedup against them, so the
  before/after trajectory in ``BENCH_perf.json`` is a real measurement
  rather than a remembered number.

They are **not** used on any production path.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..errors import DiffError
from .diff import Diff, _as_words

__all__ = [
    "reference_runs",
    "reference_create_diff",
    "reference_merge_diffs",
    "reference_apply_diff",
    "reference_encode_diff",
]


def reference_runs(diff: Diff) -> List[Tuple[int, np.ndarray]]:
    """Original ``Diff.runs``: ``np.split`` of the words at every gap.

    The oracle for :meth:`Diff.run_table`, which replaced it: one array
    view and one tuple per run, which is what made tracing a diff cost
    in proportion to its run count.
    """
    if diff.offsets.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(diff.offsets) > 1) + 1
    starts = diff.offsets[np.concatenate(([0], breaks))]
    return [(int(s), seg) for s, seg in zip(starts, np.split(diff.words, breaks))]


def reference_create_diff(page: int, twin: np.ndarray, current: np.ndarray) -> Diff:
    """Original ``create_diff``: per-run Python loop over split segments."""
    if twin.shape != current.shape:
        raise DiffError(f"twin/current shape mismatch: {twin.shape} vs {current.shape}")
    tw = _as_words(twin)
    cw = _as_words(current)
    changed = np.flatnonzero(tw != cw)
    if changed.size == 0:
        return Diff(page)
    # split the sorted changed-word indices into consecutive runs
    breaks = np.flatnonzero(np.diff(changed) > 1) + 1
    runs: List[Tuple[int, np.ndarray]] = []
    for segment in np.split(changed, breaks):
        off = int(segment[0])
        runs.append((off, cw[off : off + len(segment)].copy()))
    return Diff(page, runs)


def reference_merge_diffs(first: Diff, second: Diff) -> Diff:
    """Original ``merge_diffs``: per-word dict rebuild, O(words) Python ops."""
    if first.page != second.page:
        raise DiffError(
            f"cannot merge diffs of pages {first.page} and {second.page}"
        )
    words: dict[int, int] = {}
    for d in (first, second):
        for off, run in d.runs:
            for k, w in enumerate(run):
                words[off + k] = int(w)
    if not words:
        return Diff(first.page)
    offsets = sorted(words)
    runs: List[Tuple[int, np.ndarray]] = []
    start = prev = offsets[0]
    vals = [words[start]]
    for o in offsets[1:]:
        if o == prev + 1:
            vals.append(words[o])
        else:
            runs.append((start, np.array(vals, dtype=np.uint32)))
            start = o
            vals = [words[o]]
        prev = o
    runs.append((start, np.array(vals, dtype=np.uint32)))
    return Diff(first.page, runs)


def reference_apply_diff(diff: Diff, target: np.ndarray) -> int:
    """Original ``apply_diff``: per-run Python loop of slice assignments."""
    tw = _as_words(target)
    applied = 0
    for off, words in diff.runs:
        if off < 0 or off + len(words) > len(tw):
            raise DiffError(
                f"diff run [{off}, {off + len(words)}) outside page of {len(tw)} words"
            )
        tw[off : off + len(words)] = words
        applied += len(words)
    return applied


def reference_encode_diff(diff: Diff) -> np.ndarray:
    """Per-run Python encoder producing the packed wire/log layout.

    Semantically identical to :func:`repro.memory.diff.encode_diff`;
    builds the buffer with a Python loop and ``bytes`` concatenation the
    way a straightforward implementation would.
    """
    parts = [
        np.array(
            [diff.page, diff.word_count, len(diff.runs), 0], dtype=np.uint32
        ).tobytes()
    ]
    for off, words in diff.runs:
        parts.append(np.array([off, len(words)], dtype=np.int32).tobytes())
    for _off, words in diff.runs:
        parts.append(np.ascontiguousarray(words).tobytes())
    return np.frombuffer(b"".join(parts), dtype=np.uint8).copy()
