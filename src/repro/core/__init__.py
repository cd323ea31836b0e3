"""The paper's contribution: logging protocols and crash recovery.

* :mod:`repro.core.policylogging` -- the one logging-hooks class and
  the named policies: traditional message logging (baseline),
  coherence-centric logging (the contribution) and its variants.
* :mod:`repro.core.adaptive` -- adaptive hybrid logging (CCL <-> ML per
  interval under a recovery-time budget).
* :mod:`repro.core.stablelog`, :mod:`repro.core.logrecords` -- the
  stable-storage log with byte-exact size accounting.
* :mod:`repro.core.checkpoint` -- full + incremental checkpointing.
* :mod:`repro.core.failure` -- crash-point capture.
* :mod:`repro.core.logging_base` -- the scheme table: one row per
  protocol (policy, replay mode, promotion, breakdown components) that
  every name-based dispatch derives from.
* :mod:`repro.core.recovery` -- the one recovery driver (plan -> world
  -> victims -> verify) and the one replay node; the ML/CCL
  materialise engines live in :mod:`repro.core.ml_recovery` and
  :mod:`repro.core.ccl_recovery`, and replica promotion, which runs in
  the same phase-B world, in :mod:`repro.core.failover_recovery`.
* :mod:`repro.core.chaos` -- the seeded fault-injection / arbitrary-
  instant-crash property suite (see docs/robustness.md).
"""

from .logging_base import (
    LoggingHooks,
    NoLogging,
    PROTOCOL_NAMES,
    RECOVERY_PROTOCOL_NAMES,
    make_hooks,
    make_hooks_factory,
)
from .policylogging import CCL, CCL_NO_OVERLAP, CCL_PAPER, FAILOVER, ML, PolicyLogging
from .adaptive import AdaptiveLogging
from .stablelog import StableLog
from .logrecords import (
    FetchLogRecord,
    IncomingDiffLogRecord,
    LogRecord,
    ModeSwitchLogRecord,
    NoticeLogRecord,
    OwnDiffLogRecord,
    PageCopyLogRecord,
    UpdateEventLogRecord,
)
from .checkpoint import Checkpointer, CheckpointMeta, CheckpointSnapshot
from .failure import CrashProbe, FailureSnapshot
from .detector import FailureDetector, Heartbeat
from .responder import FailedNodeResponder, SurvivorResponder
from .recovery import (
    Promotion,
    RecoveryResult,
    ReplayNode,
    VictimRecovery,
    compare_state,
    recover_victims,
    replay_failed_node,
    run_recovery_experiment,
)
from .chaos import ChaosCase, ChaosFaults, ChaosReport, run_chaos_run, run_chaos_suite

__all__ = [
    "LoggingHooks",
    "NoLogging",
    "PROTOCOL_NAMES",
    "RECOVERY_PROTOCOL_NAMES",
    "make_hooks",
    "make_hooks_factory",
    "PolicyLogging",
    "ML",
    "CCL",
    "CCL_PAPER",
    "CCL_NO_OVERLAP",
    "FAILOVER",
    "AdaptiveLogging",
    "StableLog",
    "LogRecord",
    "NoticeLogRecord",
    "FetchLogRecord",
    "PageCopyLogRecord",
    "UpdateEventLogRecord",
    "IncomingDiffLogRecord",
    "OwnDiffLogRecord",
    "ModeSwitchLogRecord",
    "Checkpointer",
    "CheckpointMeta",
    "CheckpointSnapshot",
    "CrashProbe",
    "FailureSnapshot",
    "FailureDetector",
    "Heartbeat",
    "SurvivorResponder",
    "FailedNodeResponder",
    "ReplayNode",
    "RecoveryResult",
    "VictimRecovery",
    "Promotion",
    "compare_state",
    "recover_victims",
    "replay_failed_node",
    "run_recovery_experiment",
    "ChaosCase",
    "ChaosFaults",
    "ChaosReport",
    "run_chaos_run",
    "run_chaos_suite",
]
