"""Every flag a command accepts is read on its handler path; the rest is
refused in one line; the documented table and command lines agree.

A scan of ``src/repro/harness`` collects the ``args.<dest>`` reads of
each command's handler scopes (a module, or one function of it) named in
:data:`HANDLERS`; ``main`` reads ``--quiet``/``--json`` for all of them.
``chaoscmd`` reads the fault model through ``getattr(args, f.name)``
over :class:`~repro.core.chaos.ChaosFaults`' fields, so a non-literal
``getattr(args, ...)`` counts as reading each of those fields.  A flag a
command declares but never reads would be accepted and dropped.
"""

import argparse
import ast
import re
import shlex
from dataclasses import fields
from pathlib import Path

import pytest

from repro.core.chaos import ChaosFaults
from repro.dsm.system import DsmSystem
from repro.harness.cli import _parser, main

ROOT = Path(__file__).resolve().parents[2]
HARNESS = ROOT / "src" / "repro" / "harness"

#: command -> the scopes that read its flags: ``module`` or
#: ``module:function`` under src/repro/harness; the first is the
#: handler the command is bound to.
HANDLERS = {
    "table1": ("cli.py:_tables",),
    "table2": ("cli.py:_tables", "obscmd.py:record_bundle"),
    "fig4": ("cli.py:_tables", "obscmd.py:record_bundle"),
    "fig5": ("cli.py:_tables", "obscmd.py:record_bundle"),
    "breakdown": ("cli.py:_breakdown", "obscmd.py:record_bundle"),
    "report": ("cli.py:_report",),
    "analyze": ("analyze.py:run_analyze",),
    "ablation": ("cli.py:_ablation",),
    "perf": ("cli.py:_perf",),
    "chaos": ("chaoscmd.py:run_chaos", "chaoscmd.py"),
    "modelcheck": ("modelcheckcmd.py:run_modelcheck_cmd",),
    "timeline": ("obscmd.py:run_timeline", "obscmd.py:_record_traced",
                 "obscmd.py:record_bundle"),
    "critical-path": ("obscmd.py:run_critical_path",
                      "obscmd.py:_record_traced", "obscmd.py:record_bundle"),
    "query": ("obscmd.py:run_query", "obscmd.py:_record_traced",
              "obscmd.py:record_bundle"),
    "explain": ("obscmd.py:run_explain",),
    "all": ("cli.py:_tables", "obscmd.py:record_bundle"),
}
ALL_COMMANDS = ("cli.py:main",)


def _commands():
    """The subparser of every command, by name, in declaration order."""
    (sub,) = [a for a in _parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _declared(parser):
    return [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]


def _scope(spec):
    module, _, function = spec.partition(":")
    tree = ast.parse((HARNESS / module).read_text())
    if not function:
        return tree
    (node,) = [n for n in tree.body
               if isinstance(n, ast.FunctionDef) and n.name == function]
    return node


def _reads(spec):
    """The ``args`` attributes one scope reads."""
    reads = set()
    for node in ast.walk(_scope(spec)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "args":
            reads.add(node.attr)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", "") == "getattr" \
                and isinstance(node.args[0], ast.Name) and node.args[0].id == "args":
            name = node.args[1]
            if isinstance(name, ast.Constant):
                reads.add(name.value)
            else:
                reads.update(f.name for f in fields(ChaosFaults))
    return reads


def test_every_command_has_a_handler_row():
    assert list(HANDLERS) == sorted(HANDLERS, key=list(_commands()).index)
    assert set(HANDLERS) == set(_commands())


@pytest.mark.parametrize("command", list(HANDLERS))
def test_the_command_is_bound_to_its_first_scope(command):
    handler = _commands()[command].get_default("handler")
    module, _, function = HANDLERS[command][0].partition(":")
    assert handler.__module__ == f"repro.harness.{module[:-3]}"
    assert handler.__name__ == function


@pytest.mark.parametrize("command", list(HANDLERS))
def test_every_declared_flag_is_read(command):
    read = set().union(*map(_reads, HANDLERS[command] + ALL_COMMANDS))
    declared = {a.dest for a in _declared(_commands()[command])}
    assert sorted(declared - read) == []


#: One flag each command does not take (the first four are the probes
#: that exited 0 under the flat parser), and the flag the refusal names.
REFUSED = [
    ("table1 --zone-kill 1 --disk-torn 0.5 --which adaptive --sanitize",
     "--zone-kill"),
    ("modelcheck --program lock --replication 3 --disk-bitrot 0.2",
     "--replication"),
    ("perf --which pagesize --live-kill --repeat 1", "--which"),
    ("modelcheck --no-artifacts", "--no-artifacts"),
    ("table2 --failed-node 1", "--failed-node"),
    ("fig4 --protocol ml", "--protocol"),
    ("fig5 --paper-mode", "--paper-mode"),
    ("breakdown --jobs 2", "--jobs"),
    ("report --runs-dir runs", "--runs-dir"),
    ("analyze --out x.json", "--out"),
    ("ablation --scale test", "--scale"),
    ("chaos --protocol ccl", "--protocol"),
    ("timeline --report all", "--report"),
    ("critical-path --out x.json", "--out"),
    ("query --save-trace x.jsonl", "--save-trace"),
    ("explain a b --no-artifacts", "--no-artifacts"),
    ("all --which disk", "--which"),
]


def test_every_command_has_a_refusal_case():
    assert {line.split()[0] for line, _ in REFUSED} == set(HANDLERS)


@pytest.mark.parametrize("argv,flag", REFUSED, ids=[r[0] for r in REFUSED])
def test_a_flag_the_command_does_not_take_is_one_refusal(monkeypatch, capsys,
                                                         argv, flag):
    def no_system(*args, **kwargs):
        raise AssertionError("a DsmSystem was built before the refusal")

    monkeypatch.setattr(DsmSystem, "__init__", no_system)
    argv = argv.split()
    assert main(argv) == 2
    out, err = capsys.readouterr()
    (line,) = err.splitlines()
    assert out == "" and line.startswith(f"repro {argv[0]}: ") and flag in line


@pytest.mark.parametrize("argv", [[], ["frobnicate"], ["explain", "a"],
                                  ["chaos", "--seeds", "x"],
                                  ["modelcheck", "--program", "ring"],
                                  ["analyze", "--apps", "nosuch"]])
def test_a_malformed_command_line_is_one_refusal(capsys, argv):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    (line,) = err.splitlines()
    assert out == "" and line.startswith("repro")


def test_a_shared_flag_default_is_its_commands_own():
    parser = _parser()
    assert parser.parse_args(["chaos"]).apps == ("sor", "water")
    assert parser.parse_args(["table2"]).apps == ("fft3d", "mg", "shallow",
                                                  "water")
    assert parser.parse_args(["modelcheck"]).nodes == 2
    assert parser.parse_args(["fig5"]).nodes == 8


# ----------------------------------------------------------------------
# documentation
# ----------------------------------------------------------------------
def _table():
    """docs/api.md's command table, as the parser declares it."""
    def arg(action):
        if action.option_strings:
            return f"`{action.option_strings[0]}`"
        return f"`[{action.metavar}]`" if action.nargs == "?" else f"`{action.metavar}`"
    def positional_first(action):
        return bool(action.option_strings)
    return [f"| `{name}` | {sub.description} | " + " ".join(
                arg(a) for a in sorted(_declared(sub), key=positional_first))
            + " |" for name, sub in _commands().items()]


def test_documented_table_is_the_parsers():
    doc = (ROOT / "docs" / "api.md").read_text().split("## Command line")[1]
    rows = [line for line in doc.splitlines() if line.startswith("| `")]
    expected = _table()
    assert rows == expected, "docs/api.md's command table should read:\n" \
        + "\n".join(expected)


def _documented_command_lines():
    """Every ``python -m repro ...`` line of the README, docs/*.md and the
    Makefile, continuation lines joined and ``...`` elisions dropped."""
    for path in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md")),
                 ROOT / "Makefile"]:
        text = path.read_text().replace("\\\n", " ").replace("$(JOBS)", "2")
        for match in re.finditer(r"-m repro ([^`#\n]*)", text):
            argv = [t for t in shlex.split(match.group(1)) if t != "..."]
            yield pytest.param(argv, id=f"{path.name}: {' '.join(argv)}")


@pytest.mark.parametrize("argv", list(_documented_command_lines()))
def test_documented_command_lines_parse(argv):
    _parser().parse_args(argv)
