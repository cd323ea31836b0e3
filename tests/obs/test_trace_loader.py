"""The one trace loader against damaged input, through the CLI.

``Tracer.load`` is the only reader of ``trace.jsonl``; ``repro query``
also reads the columnar cache ``trace.columns.npz``.  A damaged trace or
cache must never surface as a traceback: ``timeline``, ``critical-path``
and ``query`` either succeed or exit 2 with one line.  Two pinned cases
(a cache missing a column, a span whose ``t0`` is a string) and a seeded
fuzz over four kinds of damage: a dropped key, a value of another type,
a torn line, and an npz column deleted or cut short.
"""

import json
import random

import numpy as np
import pytest

from repro import ClusterConfig, DsmSystem, make_app, make_hooks_factory
from repro.harness.cli import main
from repro.harness.scales import app_kwargs
from repro.obs import analytics
from repro.sim.trace import Tracer

COMMANDS = ("timeline", "critical-path", "query")


@pytest.fixture(scope="module")
def saved_lines():
    """The JSON Lines of a traced 4-node ``sor/ccl`` run at test scale."""
    tracer = Tracer(enabled=True)
    try:
        DsmSystem(make_app("sor", **app_kwargs("sor", "test")),
                  ClusterConfig.ultra5(num_nodes=4), make_hooks_factory("ccl"),
                  protocol_name="ccl", tracer=tracer).run()
    finally:
        tracer.enabled = False
    return tracer.to_jsonl().splitlines()


def _write(directory, lines):
    directory.mkdir(exist_ok=True)
    (directory / "trace.jsonl").write_text("\n".join(lines) + "\n")
    return directory


def _run(command, directory, capsys):
    """Exit code and output lines of one command over a saved trace."""
    argv = [command, str(directory / "trace.jsonl"), "--no-artifacts"]
    if command == "timeline":
        argv += ["--out", str(directory / "timeline.json")]
    code = main(argv)
    out = capsys.readouterr()
    return code, (out.out + out.err).splitlines()


def _refused_in_one_line(code, lines):
    return code == 0 or (code == 2 and len(lines) == 1)


def test_a_cache_missing_a_column_is_stale_and_reingested(saved_lines, tmp_path, capsys):
    run = _write(tmp_path / "run", saved_lines)
    assert main(["query", str(run), "--report", "phases"]) == 0
    first = analytics.load_or_ingest(str(run))
    assert first.source == "cache"
    npz = run / analytics.CACHE_NPZ
    columns = dict(np.load(npz))
    del columns["spans.t0"]
    np.savez_compressed(npz, **columns)
    capsys.readouterr()
    assert main(["query", str(run), "--report", "phases"]) == 0
    again = analytics.load_or_ingest(str(run))
    assert again.source == "cache" and again.summary() == first.summary()


def test_a_wrong_typed_field_is_refused_naming_file_and_line(saved_lines, tmp_path, capsys):
    lines = list(saved_lines)
    at = next(i for i, line in enumerate(lines) if '"s":' in line)
    record = json.loads(lines[at])
    record["t0"] = "oops"
    lines[at] = json.dumps(record)
    run = _write(tmp_path / "run", lines)
    for command in COMMANDS:
        code, out = _run(command, run, capsys)
        assert code == 2, (command, out)
        (line,) = out
        assert f"trace.jsonl:{at + 1}:" in line and "'t0'" in line, line


def _mutate(rng, lines, kind):
    lines = list(lines)
    at = rng.randrange(len(lines))
    if kind == "tear":
        lines[at] = lines[at][:rng.randrange(1, len(lines[at]))]
        return lines
    record = json.loads(lines[at])
    # a key of the record or, for swaps, of its detail
    where = record["d"] if kind == "swap" and isinstance(record.get("d"), dict) \
        and record["d"] and rng.random() < 0.5 else record
    key = rng.choice(sorted(where))
    if kind == "drop":
        del where[key]
    else:
        where[key] = rng.choice(
            [v for v in ("x", 1.5, None, [1], {"a": 1}, True, 2 ** 40, -7)
             if type(v) is not type(where[key])])
    lines[at] = json.dumps(record)
    return lines


@pytest.mark.parametrize("kind", ["drop", "swap", "tear"])
def test_damaged_jsonl_succeeds_or_exits_2_with_one_line(kind, saved_lines, tmp_path, capsys):
    rng = random.Random(f"trace-loader-{kind}")
    for case in range(8):
        run = _write(tmp_path / f"{kind}{case}", _mutate(rng, saved_lines, kind))
        for command in COMMANDS:
            code, out = _run(command, run, capsys)
            assert _refused_in_one_line(code, out), (kind, case, command, code, out)


def test_damaged_npz_column_succeeds_or_exits_2_with_one_line(saved_lines, tmp_path, capsys):
    rng = random.Random("trace-loader-npz")
    for case in range(6):
        run = _write(tmp_path / f"npz{case}", saved_lines)
        assert main(["query", str(run)]) == 0
        npz = run / analytics.CACHE_NPZ
        columns = dict(np.load(npz))
        name = rng.choice(sorted(columns))
        if case % 2:
            columns[name] = columns[name][:len(columns[name]) // 2]
        else:
            del columns[name]
        np.savez_compressed(npz, **columns)
        capsys.readouterr()
        for command in COMMANDS:
            code, out = _run(command, run, capsys)
            assert _refused_in_one_line(code, out), (case, name, command, code, out)
