"""Run-time sanitizer: every DSM run is traced and checked.

:func:`install` wraps :meth:`DsmSystem.run <repro.dsm.system.DsmSystem.run>`
so that each failure-free run is traced (the tracer is force-enabled for
the run's duration) and, on completion, fed through both sanitizer
passes:

* the protocol invariant checker (:func:`repro.analysis.check_trace`),
* the recoverability auditor
  (:func:`repro.analysis.audit_recoverability`).

Either raises (:class:`~repro.errors.InvariantViolationError` /
:class:`~repro.errors.RecoverabilityError`) on a violation, turning any
test that runs a DSM application into a protocol conformance test.
Runs with a killed node are traced but not checked -- a crashed run
legitimately leaves dangling sends and unacked diffs.

The pytest hook in the repo's ``tests/conftest.py`` installs this for
the whole session when invoked as ``pytest --sanitize``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

from ..dsm.system import DsmSystem
from .invariants import check_trace
from .recoverability import audit_recoverability

__all__ = ["install", "is_installed", "traced"]

_original_run: Optional[Callable[..., Any]] = None


def is_installed() -> bool:
    """Whether the sanitizer wrapper is currently active."""
    return _original_run is not None


def install() -> Callable[[], None]:
    """Wrap :meth:`DsmSystem.run` with the sanitizer; return the undo.

    Idempotent: a second call while installed returns a no-op undo so
    nested installers cannot double-wrap or prematurely unwrap.
    """
    global _original_run
    if _original_run is not None:
        return lambda: None

    original = DsmSystem.run
    _original_run = original

    def run_sanitized(self: DsmSystem, kill_node: Optional[int] = None,
                      kill_at: Optional[float] = None) -> Any:
        was_enabled = self.tracer.enabled
        self.tracer.enabled = True
        try:
            result = original(self, kill_node=kill_node, kill_at=kill_at)
        finally:
            self.tracer.enabled = was_enabled
        if kill_node is None and result.completed:
            check_trace(self.tracer).raise_if_failed()
            audit_recoverability(self).raise_if_failed()
        if not was_enabled:
            # stay transparent: the caller did not ask for a trace, so
            # do not leave one behind (but keep it when a check raised,
            # as evidence).
            self.tracer.clear()
        return result

    run_sanitized.__wrapped__ = original  # type: ignore[attr-defined]
    DsmSystem.run = run_sanitized  # type: ignore[method-assign]

    def uninstall() -> None:
        global _original_run
        if _original_run is None:
            return
        DsmSystem.run = _original_run  # type: ignore[method-assign]
        _original_run = None

    return uninstall


@contextmanager
def traced() -> Iterator[None]:
    """Force tracing on for every run in the block, without checking.

    Used by ``repro analyze --app``: it wants the trace and the *report*
    (counts, all findings), not the first-violation exception
    :func:`install` raises.  A run's tracer keeps its trace and is
    switched back to what it was.
    """
    original = DsmSystem.run

    def run_traced(self: DsmSystem, kill_node: Optional[int] = None,
                   kill_at: Optional[float] = None) -> Any:
        was_enabled, self.tracer.enabled = self.tracer.enabled, True
        try:
            return original(self, kill_node=kill_node, kill_at=kill_at)
        finally:
            self.tracer.enabled = was_enabled

    DsmSystem.run = run_traced  # type: ignore[method-assign]
    try:
        yield
    finally:
        DsmSystem.run = original  # type: ignore[method-assign]
