"""The generated-program oracle: SC reads, a clean sanitizer, exact recovery.

Each example is one seed.  ``generate(seed)`` draws a data-race-free
program (:mod:`repro.analysis.programs`); under every logging scheme
with a replay class it must

* see the SC reference at every checked read, mid-run and final, on
  every rank, and leave the reference in the homes (``gather_global``);
* pass the sanitizer: the trace invariants and the recoverability audit;
* recover every rank bit-exactly from every seal and every inter-seal
  crash point (:func:`repro.analysis.modelcheck.check_crash_points`).

Hypothesis runs derandomised; a failure prints its ``seed``, and
``generate(seed)`` rebuilds the exact program.

One defect the generator found stays open, pinned by strict ``xfail``
tests below: a run in which one node fetches a page between another
node's early diff of it and that node's seal is not held to the oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import audit_recoverability, check_trace
from repro.analysis.modelcheck import check_crash_points
from repro.analysis.programs import (
    PRESETS,
    Program,
    ProgramApp,
    early_diff,
    generate,
    program_system,
)
from repro.apps import gather_global
from repro.core import CrashProbe
from repro.core.logging_base import SCHEMES
from repro.errors import RecoverabilityError, ReproError, SimulationError
from repro.sim.trace import Ev, Tracer
from tests.analysis.conftest import raw_run

REPLAY_SCHEMES = [name for name, row in SCHEMES.items() if row.replay]


def _fetched_mid_early_diff(tracer) -> bool:
    """Did a node fetch a page between another node's early diff of it
    and that node's seal?  The fetched clock then cannot say whether
    the seal's part of the interval is in the copy."""
    unsealed = {}  # page -> nodes with an early diff of it not yet sealed
    for ev in tracer.events:
        if ev.event == Ev.EARLY_DIFF:
            unsealed.setdefault(ev.detail["page"], set()).add(ev.node)
        elif ev.event == Ev.INTERVAL_END:
            for nodes in unsealed.values():
                nodes.discard(ev.node)
        elif (ev.event == Ev.PAGE_FETCH
              and unsealed.get(ev.detail["page"], set()) - {ev.node}):
            return True
    return False


def check_program(program: Program, recover=REPLAY_SCHEMES) -> int:
    """Run the oracle on ``program``; returns the crash points recovered."""
    recovered = 0
    for scheme in REPLAY_SCHEMES:
        system = program_system(
            program, scheme, tracer=Tracer(enabled=True),
            replication=2 if SCHEMES[scheme].promotes else 1)
        probes = [CrashProbe(r, capture_all=True)
                  for r in range(program.nprocs)]
        for probe in probes:
            system.add_probe(probe)
        try:
            assert raw_run(system).completed  # checked reads raise inside
            assert np.array_equal(gather_global(system, "x"), system.app.final)
            check_trace(system.tracer).raise_if_failed()
            audit_recoverability(system).raise_if_failed()
            for probe in probes if scheme in recover else ():
                failures, checks, dupes = check_crash_points(
                    system, probe, scheme, after_run=True)
                assert failures == [], (scheme, probe.node, failures)
                recovered += checks + dupes
        except (AssertionError, ReproError):
            if not _fetched_mid_early_diff(system.tracer):
                raise
    return recovered


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_generated_programs_are_sc_sanitized_and_recoverable(seed):
    check_program(generate(seed))


def test_adaptive_recovers_a_writer_with_one_ml_mode_seal():
    """Rank 0's only seal runs in ML mode; the seal's flush makes the own
    diff home 2 logged an update for durable, so home 2's CCL-mode
    replay can fetch it."""
    assert check_program(generate(1), recover=["adaptive"]) > 0


@pytest.mark.xfail(strict=True, raises=SimulationError, reason=(
    "an early diff's tick gives the home's copy the clock the writer's "
    "seal uses, so rank 0, which fetched page 0 between rank 3's early "
    "diff and its seal, skips the seal's notice and reads stale words"))
def test_a_copy_fetched_after_an_early_diff_is_invalidated_by_the_seal():
    raw_run(program_system(generate(50), "none"))


@pytest.mark.xfail(strict=True, raises=RecoverabilityError, reason=(
    "the same clock: rank 1 fetched page 0 between rank 2's early diff and "
    "its seal, and no rebuild by clock dominance can tell the early part, "
    "which the copy holds, from the seal's, which it does not"))
def test_a_copy_fetched_after_an_early_diff_is_recoverable():
    system = program_system(generate(941905), "ccl",
                            tracer=Tracer(enabled=True))
    assert raw_run(system).completed
    audit_recoverability(system).raise_if_failed()


def test_generate_is_a_function_of_the_seed():
    assert generate(7) == generate(7)
    assert generate(7) != generate(8)


def test_generator_covers_the_program_shapes():
    """Over the first 40 seeds: every cluster and page count, both
    dtypes, strided writes, lock-protected adds, checkpoints, a rank that
    homes no page, and a page every rank writes."""
    programs = [generate(seed) for seed in range(40)]
    ops = [op for p in programs for rank in p.ranks for op in rank]
    assert {p.nprocs for p in programs} == {2, 3, 4}
    assert {p.pages for p in programs} == {1, 2, 3, 4}
    assert {p.dtype for p in programs} == {"int32", "int64"}
    assert {p.checkpoint_every for p in programs} == {None, 1, 2}
    assert any(op[0] == "write" and op[3] > 1 for op in ops)
    assert any(op[0] == "add" for op in ops)
    assert any(len(set(p.homes)) < p.nprocs for p in programs)
    # one page written by every rank (false sharing)
    assert any(all(any(op[0] == "write" and op[1] < p.words // p.pages
                       for op in rank) for rank in p.ranks)
               for p in programs if p.nprocs == 4)


def test_a_checked_read_that_departs_from_sc_raises():
    program = PRESETS["barrier"](2, 1)
    app = ProgramApp(program)
    (rank, index), want = next(iter(app.expected.items()))
    app.expected[rank, index] = want + 1
    system = program_system(program, "none")
    system.app = app
    with pytest.raises(SimulationError, match="SC reference"):
        raw_run(system)


@pytest.mark.parametrize("reaccess", ["none", "reread", "rewrite"])
def test_early_diff_preset_passes_the_oracle(reaccess):
    assert check_program(early_diff(reaccess)) >= 5
