"""A torn or corrupt run bundle is one diagnosed line and exit 2, and no
command that reads a bundle writes into it.

One real bundle -- a traced 2-node ``sor`` run recorded by ``repro
query``, so it holds ``manifest.json`` and ``trace.jsonl`` -- is damaged
by seeded truncations and byte flips, and every command that reads the
damaged file runs on it.  A damaged ``trace.jsonl`` or ``manifest.json``
makes the command print one error line naming the file and exit 2,
never a traceback.  On an undamaged bundle, one recorded by ``repro
timeline``, the same commands leave every file byte-identical.  A
``breakdown`` bundle records no trace: every command that needs one
refuses it with the same line and exit 2, and ``explain`` diffs its
manifest without span rows.
"""

import random
import shutil

import pytest

from repro.harness.cli import main

SEEDS = range(3)

#: file -> the commands that read it (``{b}``: the bundle, ``{o}``: a
#: directory outside it); ``trace_file``: the commands that need the
#: trace a manifest names
READERS = {
    "trace.jsonl": [
        ["query", "{b}"],
        ["timeline", "{b}", "--out", "{o}/timeline.json"],
        ["critical-path", "{b}"],
        ["analyze", "{b}/trace.jsonl"],
    ],
    "manifest.json": [
        ["explain", "{b}", "{b}/manifest.json"],
        ["explain", "{b}", "{b}"],
        ["timeline", "{b}", "--out", "{o}/timeline.json"],
    ],
    "trace_file": [
        ["timeline", "{b}", "--out", "{o}/timeline.json"],
        ["critical-path", "{b}"],
        ["query", "{b}"],
        ["analyze", "{b}"],
    ],
}


def _record(tmp_path_factory, command, *argv):
    runs = tmp_path_factory.mktemp(command)
    assert main([command, "--apps", "sor", "--scale", "test", "--nodes", "2",
                 "--runs-dir", str(runs), "--quiet", *argv]) == 0
    (path,) = runs.iterdir()
    return path


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    path = _record(tmp_path_factory, "query")
    assert sorted(p.name for p in path.iterdir()) == ["manifest.json", "trace.jsonl"]
    return path


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return _record(tmp_path_factory, "breakdown")


def _truncate(data: bytes, rng: random.Random) -> bytes:
    """Cut inside a line, before the closing brace of the last object."""
    end = data.rstrip().rfind(b"}")
    while True:
        cut = rng.randrange(1, end)
        if b"\n" not in data[cut - 1:cut + 1]:
            return data[:cut]


def _flip(data: bytes, rng: random.Random) -> bytes:
    """Set the high bit of one byte: never valid UTF-8 in a JSON file."""
    at = rng.randrange(len(data))
    return data[:at] + bytes([data[at] ^ 0x80]) + data[at + 1:]


def _run(argv, bundle, out_dir, capsys):
    code = main([arg.format(b=bundle, o=out_dir) for arg in argv] + ["--quiet"])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("damage", [_truncate, _flip])
@pytest.mark.parametrize("name", ["trace.jsonl", "manifest.json"])
def test_a_damaged_bundle_file_is_one_error_line(bundle, tmp_path, capsys,
                                                 name, damage):
    for seed in SEEDS:
        copy = tmp_path / f"{seed}"
        shutil.copytree(bundle, copy)
        target = copy / name
        target.write_bytes(damage(target.read_bytes(), random.Random(seed)))
        for argv in READERS[name]:
            code, out, err = _run(argv, copy, tmp_path, capsys)
            (line,) = err.strip().splitlines()
            assert code == 2, (argv, seed, out, err)
            assert name in line and "Traceback" not in err, line
            assert line.startswith(f"repro {argv[0]}: "), line


def test_reading_a_bundle_leaves_it_byte_identical(tmp_path_factory, tmp_path,
                                                  capsys):
    bundle = _record(tmp_path_factory, "timeline")

    def files():
        return {p.name: p.read_bytes() for p in bundle.iterdir()}

    before = files()
    assert sorted(before) == ["manifest.json", "timeline.json", "trace.jsonl"]
    for argv in sorted({tuple(a) for rows in READERS.values() for a in rows}):
        code, out, err = _run(argv, bundle, tmp_path, capsys)
        assert (code, err) == (0, ""), (argv, err)
        assert files() == before, argv


def test_a_bundle_without_a_trace_is_one_refusal(untraced, tmp_path, capsys):
    refusals = set()
    for argv in READERS["trace_file"]:
        code, out, err = _run(argv, untraced, tmp_path, capsys)
        (line,) = err.strip().splitlines()
        assert code == 2 and line.startswith(f"repro {argv[0]}: "), (argv, err)
        refusals.add(line[len(f"repro {argv[0]}: "):])
    assert refusals == {f"bundle {untraced} has no recorded trace"}
    code, out, err = _run(["explain", "{b}", "{b}"], untraced, tmp_path, capsys)
    assert (code, err) == (0, ""), err
    assert "no differences" in out and "span self-time" not in out
