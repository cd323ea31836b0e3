"""Every script under ``examples/`` runs, and the crash-recovery demo's
signed change agrees with recovery being faster than re-execution."""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def _run_main(path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [path.name])
    module.main()
    return capsys.readouterr().out


def test_examples_run_and_the_demo_signs_its_change(monkeypatch, capsys):
    outs = {p.stem: _run_main(p, monkeypatch, capsys)
            for p in sorted(EXAMPLES.glob("*.py"))}
    assert len(outs) == 4 and all(outs.values()), sorted(outs)
    demo = outs["crash_recovery_demo"]
    (reexec,) = re.findall(r"Failure-free execution:\s+([\d.]+) ms", demo)
    rows = re.findall(
        r"recovery time :\s+([\d.]+) ms \(([+-][\d.]+)% vs re-execution\)", demo)
    assert len(rows) == 2, demo
    for recovery, change in rows:
        assert float(recovery) < float(reexec)
        assert float(change) < 0, f"a faster recovery printed as {change}%"
        assert float(change) == pytest.approx(
            100 * (float(recovery) / float(reexec) - 1), abs=0.1)
