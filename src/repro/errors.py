"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class.  Subsystems raise the most
specific subclass available.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigError",
    "SimulationError",
    "DeadlockError",
    "ProcessKilled",
    "MemoryLayoutError",
    "PageError",
    "DiffError",
    "ProtocolError",
    "SynchronizationError",
    "LoggingProtocolError",
    "LogFormatError",
    "StorageFaultError",
    "CheckpointError",
    "RecoveryError",
    "ApplicationError",
    "HarnessError",
    "BundleError",
    "AnalysisError",
    "InvariantViolationError",
    "RecoverabilityError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` package."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration value was supplied."""


class SimulationError(ReproError):
    """Generic failure inside the discrete-event simulation engine."""


class DeadlockError(SimulationError):
    """The event queue drained while simulated processes were still blocked.

    Carries the names of the blocked processes to aid debugging of
    protocol-level hangs (e.g. a barrier that never releases).
    """

    def __init__(self, blocked: list[str]):
        self.blocked = list(blocked)
        super().__init__(
            "simulation deadlock; blocked processes: " + ", ".join(self.blocked)
        )


class ProcessKilled(SimulationError):
    """Raised *inside* a simulated process when it is forcibly terminated.

    Used by the failure injector to crash a node: the exception is thrown
    into the process generator so that ``finally`` blocks run, then the
    process is marked dead.
    """


class MemoryLayoutError(ReproError):
    """A shared-memory allocation or addressing request was invalid."""


class PageError(ReproError):
    """An operation referenced a page in an illegal state."""


class DiffError(ReproError):
    """A diff could not be created or applied."""


class ProtocolError(ReproError):
    """The DSM coherence protocol reached an inconsistent state."""


class SynchronizationError(ProtocolError):
    """Misuse of locks or barriers (e.g. releasing an unheld lock)."""


class LoggingProtocolError(ReproError):
    """A logging protocol hook was invoked in an illegal order."""


class LogFormatError(ReproError):
    """A framed log segment or record failed to decode (torn/corrupt)."""


class StorageFaultError(ReproError):
    """A stable-storage write failed permanently (retries exhausted)."""


class CheckpointError(ReproError):
    """Checkpoint creation or restoration failed."""


class RecoveryError(ReproError):
    """Crash recovery could not reconstruct a consistent state."""


class ApplicationError(ReproError):
    """A DSM application misbehaved (bad allocation, failed verification)."""


class HarnessError(ReproError):
    """The experiment harness was driven with inconsistent arguments."""


class BundleError(ReproError):
    """A run bundle's manifest, trace or history is unreadable or torn."""


class AnalysisError(ReproError):
    """Base class for the coherence sanitizer (:mod:`repro.analysis`)."""


class InvariantViolationError(AnalysisError):
    """A trace broke a protocol invariant the checker enforces."""


class RecoverabilityError(AnalysisError):
    """The logs cannot reconstruct a page version recovery would need."""
