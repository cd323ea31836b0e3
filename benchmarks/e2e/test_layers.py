"""The module -> layer table covers ``src/repro`` exactly.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.
"""

import cProfile
import pstats
from fnmatch import fnmatchcase
from pathlib import Path

import layers

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
MODULES = sorted(p.relative_to(SRC).as_posix() for p in SRC.rglob("*.py"))


def test_every_module_maps_to_one_named_layer():
    assert MODULES, f"no modules under {SRC}"
    unmapped = [m for m in MODULES if layers.layer_of_module(m) is None]
    assert not unmapped, f"add these modules to layers.RULES: {unmapped}"
    for module in MODULES:
        layer = layers.layer_of_module(module)
        assert layer in layers.LAYERS and layer != "other", (module, layer)


def test_no_layer_is_empty_and_no_rule_is_dead():
    populated = {layers.layer_of_module(m) for m in MODULES}
    # "other" is the residue for frames outside src/repro, never a module's
    assert populated == set(layers.LAYERS) - {"other"}
    for index, (pattern, layer) in enumerate(layers.RULES):
        first_match = [
            m for m in MODULES
            if next(i for i, (p, _) in enumerate(layers.RULES)
                    if fnmatchcase(m, p)) == index
        ]
        assert first_match, f"rule {pattern!r} -> {layer!r} matches no module"


def test_foreign_self_time_is_charged_to_the_calling_layer():
    from repro.dsm.interval import VectorClock

    profiler = cProfile.Profile()
    profiler.enable()
    clock = VectorClock.zero(64)
    for _ in range(2000):
        clock = clock.merge(VectorClock.zero(64))
    profiler.disable()
    out = layers.attribute(pstats.Stats(profiler))
    assert set(out) == set(layers.LAYERS)
    assert out["dsm.interval"]["calls"] >= 4000
    total = sum(v["self_s"] for v in out.values())
    # the tuple/genexpr/builtin work under merge() belongs to dsm.interval;
    # only this test's own loop is left for "other"
    assert out["dsm.interval"]["self_s"] > 0.5 * total
    assert out["other"]["calls"] == 0
