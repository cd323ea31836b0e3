"""Every trace event kind is emitted and read; the documented table agrees.

A scan of ``src/repro`` finds, for each :class:`~repro.sim.trace.Ev`
member, the modules whose ``_trace``/``on_event``/``record``/``_event``
calls emit it and the modules of :mod:`repro.analysis` and
:mod:`repro.obs` that read it (``Ev.OWN_VT_EVENTS`` reads its members).
A kind nothing reads is trace bytes for nothing; an event name given as
a string literal escapes the scan, so none is allowed.  The event table
of ``docs/observability.md`` is the scan's table, row for row.
"""

import ast
from collections import defaultdict
from pathlib import Path

from repro.sim.trace import Ev

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
DOC = SRC.parents[1] / "docs" / "observability.md"
#: Emitting call name -> position of its event argument.
EMITTERS = {"_trace": 0, "on_event": 0, "record": 2, "_event": 2}
MEMBERS = {name: value for name, value in vars(Ev).items()
           if name.isupper() and isinstance(value, str)}
READERS = ("analysis", "obs")


def _ev_member(node):
    """The ``Ev`` attribute ``node`` names, or None."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == "Ev":
        return node.attr
    return None


def _scan():
    """(emitters, readers, problems): kind -> modules, and bad call sites."""
    emitters, readers, problems = defaultdict(set), defaultdict(set), []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        reader = module.split("/")[0] in READERS
        emitted, named = set(), []
        for node in ast.walk(ast.parse(path.read_text())):
            member = _ev_member(node)
            if member is not None:
                named.append((node, member))
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            at = EMITTERS.get(name)
            if at is None or len(node.args) <= at:
                continue
            arg = node.args[at]
            member = _ev_member(arg)
            if member in MEMBERS:
                emitters[MEMBERS[member]].add(module)
                emitted.add(arg)
            elif not isinstance(arg, ast.Name):  # a forwarded parameter is fine
                problems.append(f"{module}:{node.lineno}: {name}() event is "
                                f"{ast.unparse(arg)}, not an Ev member")
        for node, member in named if reader else ():
            if member == "OWN_VT_EVENTS":
                for kind in Ev.OWN_VT_EVENTS:
                    readers[kind].add(module)
            elif member in MEMBERS and node not in emitted:
                readers[MEMBERS[member]].add(module)
    return emitters, readers, problems


def _table(emitters, readers):
    """The documented event table's rows, as the scan finds them."""
    def cell(modules):
        return ", ".join(f"`{m}`" for m in sorted(modules))
    return [f"| `{kind}` | {cell(emitters[kind])} | {cell(readers[kind])} |"
            for kind in sorted(MEMBERS.values())]


def test_every_kind_is_emitted_and_read():
    emitters, readers, _ = _scan()
    unemitted = sorted(k for k in MEMBERS.values() if not emitters[k])
    unread = sorted(k for k in MEMBERS.values() if not readers[k])
    assert (unemitted, unread) == ([], [])


def test_every_event_is_named_by_an_ev_member():
    assert _scan()[2] == []


def test_documented_table_is_the_scanned_one():
    rows = [line for line in DOC.read_text().splitlines() if line.startswith("| `")]
    expected = _table(*_scan()[:2])
    assert rows == expected, "docs/observability.md's event table should read:\n" \
        + "\n".join(expected)
