"""The one reader of a run bundle's JSON (manifest, trace, history): a
torn or corrupt file is a :class:`~repro.errors.BundleError` naming the
file and line, not a traceback out of :mod:`json`."""

from __future__ import annotations

import json
from typing import Any, Callable, Dict

from .errors import BundleError

__all__ = ["json_records", "parse_json", "read_text"]


def read_text(path: str) -> str:
    """The text of ``path``; a file that cannot be read is a BundleError."""
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise BundleError(f"cannot read {path}: {exc}") from None


def parse_json(text: str, where: str) -> Any:
    """``json.loads``; torn or corrupt text is a BundleError naming ``where``."""
    try:
        return json.loads(text)
    except ValueError as exc:
        raise BundleError(f"{where}: torn or corrupt JSON ({exc})") from None


def json_records(text: str, source: str,
                 add: Callable[[Dict[str, Any]], None]) -> None:
    """``add(obj)`` for the JSON object on each non-blank line of ``text``.

    A line that is torn, not a JSON object, or lacks a field ``add``
    reads is a BundleError naming ``source`` and the line number.
    """
    bad = (ValueError, KeyError, TypeError, AttributeError)
    lines = text.splitlines()
    for at in range(0, len(lines), 1024):
        chunk = lines[at:at + 1024]
        try:  # one parse per chunk; line by line only to name a bad line
            kept = ",".join(ln for ln in chunk if ln and not ln.isspace())
            for obj in json.loads(f"[{kept}]"):
                add(obj)
            continue
        except bad:
            pass
        for lineno, line in enumerate(chunk, at + 1):
            try:
                if line and not line.isspace():
                    add(json.loads(line))
            except bad as exc:
                raise BundleError(f"{source}:{lineno}: torn or corrupt "
                                  f"record ({exc!r})") from None
        raise BundleError(f"{source}: torn or corrupt records after line {at}")
