"""The scheme table: one row per logging protocol and how it recovers.

Re-exports the hook interface from the DSM layer (where it lives to
keep the dependency graph acyclic) and holds :data:`SCHEMES`, the one
registry every surface that offers a protocol choice derives from --
:data:`PROTOCOL_NAMES` / :data:`RECOVERY_PROTOCOL_NAMES` (CLI flags,
chaos matrices), :func:`make_hooks`, the replay mode of
:class:`~repro.core.recovery.ReplayNode`, the chaos suite's choice
between replay and replica promotion, and the comparison table in
docs/recovery.md -- so adding a protocol cannot silently miss one of
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Type

from ..dsm.logginghooks import LoggingHooks, LogPolicy, NoLogging
from ..errors import ConfigError
from .adaptive import ML_MODE, AdaptiveLogging
from .policylogging import CCL, FAILOVER, ML, PolicyLogging

__all__ = [
    "LoggingHooks",
    "NoLogging",
    "Scheme",
    "SCHEMES",
    "PROTOCOL_NAMES",
    "RECOVERY_PROTOCOL_NAMES",
    "make_hooks",
    "make_hooks_factory",
]

#: Recovery-time components every replay charges: re-executed compute,
#: local synchronisation, diff/twin CPU, sequential log scans, plus the
#: checkpoint restore read and the salvage CRC walk when they apply.
_REPLAY = ("compute", "sync", "diff", "log_read", "ckpt_restore", "salvage_scan")


@dataclass(frozen=True)
class Scheme:
    """One logging protocol and the way a node that ran it is recovered."""

    name: str
    #: Failure-free side: what every node logs and when it flushes.
    policy: LogPolicy
    #: Recovery-time breakdown components the scheme's recovery charges
    #: (``NodeStats.time`` categories; docs/recovery.md lists the same).
    components: Tuple[str, ...] = ()
    #: Recovers by promoting a home replica (needs ``replication >= 2``);
    #: ``replay`` is then the fallback when the quorum is lost.
    promotes: bool = False
    #: The hooks class obeying ``policy``.
    hooks: Type[LoggingHooks] = PolicyLogging
    #: The hooks take the adaptive cost model's ``recovery_budget``.
    budgeted: bool = False

    @property
    def replay(self) -> Optional[str]:
        """The engine mode replaying this scheme's log where no switch
        marker says otherwise: ``ml`` for logged contents, ``ccl`` for a
        skeleton (None: nothing to recover from)."""
        if self.policy.contents:
            return "ml"
        return "ccl" if self.policy.skeleton else None


#: The three protocols of the evaluation (paper Section 4) plus the
#: adaptive hybrid that switches between ML and CCL per interval and
#: the failover scheme (CCL logging under quorum-replicated homes, whose
#: log format is CCL's plus content-free home-write records that apply
#: as no-ops -- so a lost quorum still replays the classic CCL way).
SCHEMES: Dict[str, Scheme] = {
    s.name: s
    for s in (
        Scheme("none", LogPolicy(), hooks=NoLogging),
        Scheme("ml", ML, _REPLAY + ("fault", "miss_read")),
        Scheme("ccl", CCL, _REPLAY + ("prefetch",)),
        Scheme("adaptive", ML_MODE,
               _REPLAY + ("fault", "miss_read", "prefetch"),
               hooks=AdaptiveLogging, budgeted=True),
        Scheme("failover", FAILOVER,
               ("detection", "promotion", "meta_replay", "diff_refetch"),
               promotes=True),
    )
}

PROTOCOL_NAMES = tuple(SCHEMES)

#: The subset whose logs a crashed node can be replayed from.
RECOVERY_PROTOCOL_NAMES = tuple(n for n, s in SCHEMES.items() if s.replay)


def _scheme(name: str, recovery_budget: Optional[float]) -> Scheme:
    scheme = SCHEMES.get(name)
    if scheme is None:
        raise ConfigError(
            f"unknown logging protocol {name!r}; know {PROTOCOL_NAMES}"
        )
    if recovery_budget is not None and not scheme.budgeted:
        # a configuration error rather than a silently ignored knob
        raise ConfigError(
            f"recovery_budget only applies to the adaptive protocol, "
            f"not {name!r}"
        )
    return scheme


def make_hooks(
    name: str, recovery_budget: Optional[float] = None
) -> LoggingHooks:
    """Instantiate a logging protocol by name.

    ``recovery_budget`` (virtual seconds) only applies to the adaptive
    protocol; passing it with a static protocol is refused.
    """
    scheme = _scheme(name, recovery_budget)
    budget = {} if recovery_budget is None else {"recovery_budget": recovery_budget}
    return scheme.hooks(scheme.policy, **budget)


def make_hooks_factory(
    name: str, recovery_budget: Optional[float] = None
) -> Callable[[int], LoggingHooks]:
    """A per-node factory for :class:`~repro.dsm.system.DsmSystem`.

    Validates the name and budget here, without constructing anything.
    """
    _scheme(name, recovery_budget)
    return lambda _node_id: make_hooks(name, recovery_budget=recovery_budget)
