"""A torn or corrupt run bundle is one diagnosed line and exit 2.

One real bundle -- a traced 2-node ``sor`` run recorded by ``repro
query``, so it holds ``manifest.json``, ``trace.jsonl`` and the columnar
cache ``trace.columns.npz`` -- is damaged by seeded truncations and byte
flips, and every command that reads the damaged file runs on it.  A
damaged ``trace.jsonl`` or ``manifest.json`` makes the command print one
error line naming the file and exit 2, never a traceback.  The npz is a
cache: a damaged one is re-ingested from the JSONL, and the command
prints what it prints on the undamaged bundle.
"""

import random
import shutil

import pytest

from repro.harness.cli import main

SEEDS = range(3)

#: file -> the commands that read it (``{b}``: the damaged bundle)
READERS = {
    "trace.jsonl": [
        ["query", "{b}"],
        ["timeline", "{b}", "--out", "{b}/timeline.json"],
        ["critical-path", "{b}"],
        ["analyze", "{b}/trace.jsonl"],
    ],
    "manifest.json": [
        ["compare", "{b}", "{b}"],
        ["explain", "{b}", "{b}"],
        ["timeline", "{b}", "--out", "{b}/timeline.json"],
    ],
    "trace.columns.npz": [
        ["query", "{b}"],
        ["explain", "{b}", "{b}"],
    ],
}


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    runs = tmp_path_factory.mktemp("runs")
    assert main(["query", "--apps", "sor", "--scale", "test", "--nodes", "2",
                 "--runs-dir", str(runs), "--quiet"]) == 0
    (path,) = runs.iterdir()
    assert (path / "trace.columns.npz").exists()
    return path


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


def _run(argv, bundle, capsys):
    code = main([arg.format(b=bundle) for arg in argv] + ["--quiet"])
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
            code, out, err = _run(argv, copy, capsys)
            (line,) = err.strip().splitlines()
            assert code == 2, (argv, seed, out, err)
            assert name in line and "Traceback" not in err, line
            assert line.startswith(f"{argv[0]}: "), line


@pytest.mark.parametrize("damage", [_truncate, _flip])
def test_a_damaged_columnar_cache_is_re_ingested(bundle, tmp_path, capsys,
                                                 damage):
    for argv in READERS["trace.columns.npz"]:
        want = _run(argv, bundle, capsys)
        for seed in SEEDS:
            copy = tmp_path / f"{argv[0]}-{seed}"
            shutil.copytree(bundle, copy)
            npz = copy / "trace.columns.npz"
            npz.write_bytes(damage(npz.read_bytes(), random.Random(seed)))
            code, out, err = _run(argv, copy, capsys)
            assert (code, err) == (0, ""), (argv, seed, err)
            assert out == want[1].replace(str(bundle), str(copy))
