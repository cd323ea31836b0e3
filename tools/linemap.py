"""pytest plugin: the executable lines of ``src/repro`` a test run never runs.

Load it by name with ``tools`` on the path (``make linemap`` does)::

    PYTHONPATH=src:tools python -m pytest -p linemap --linemap-out linemap.json

It traces this process with :func:`sys.settrace` from before pytest
loads the first conftest (which imports the package), and at the end of
the session writes per file the lines that compile to bytecode but never
ran, plus the totals.  Subprocesses (CLI tests, ``--jobs`` workers) are
not traced, so the counts are upper bounds.  Tracing slows the run
several times over, so a test with a wall-clock bound may fail.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from pathlib import Path
from types import CodeType
from typing import Dict, Iterator, Set

import pytest

ROOT = Path(os.path.abspath(__file__)).parents[1] / "src" / "repro"
_PREFIX = f"{ROOT}/"
_ran: Dict[str, Set[int]] = {}


def _line(frame, event, _arg):
    if event == "line":
        _ran[frame.f_code.co_filename].add(frame.f_lineno)
    return _line


def _call(frame, _event, _arg):
    name = frame.f_code.co_filename
    if not name.startswith(_PREFIX):
        return None
    _ran.setdefault(name, set()).add(frame.f_lineno)
    return _line


def _lines(code: CodeType) -> Iterator[int]:
    """Every line some instruction of ``code`` or its nested code maps to."""
    yield from (line for _start, _end, line in code.co_lines() if line is not None)
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from _lines(const)


def unrun() -> dict:
    """Per file under ``src/repro``, the executable lines that never ran."""
    files, executable = {}, 0
    for path in sorted(ROOT.rglob("*.py")):
        lines = set(_lines(compile(path.read_text(), str(path), "exec")))
        executable += len(lines)
        missed = sorted(lines - _ran.get(str(path), set()))
        if missed:
            files[path.relative_to(ROOT).as_posix()] = missed
    files = dict(sorted(files.items(), key=lambda item: (-len(item[1]), item[0])))
    return {"executable": executable, "unrun": sum(map(len, files.values())),
            "per_file": {name: len(lines) for name, lines in files.items()},
            "lines": files}


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests():
    sys.settrace(_call)
    threading.settrace(_call)


def pytest_addoption(parser):
    parser.addoption("--linemap-out", default="linemap.json",
                     help="where to write the unrun-line map (JSON)")


def pytest_sessionfinish(session):
    sys.settrace(None)
    threading.settrace(None)
    doc = unrun()
    out = Path(session.config.getoption("--linemap-out"))
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"\nlinemap: {doc['unrun']} of {doc['executable']} executable "
          f"src/repro lines never ran; per file in {out}")
