"""Home-based software distributed shared memory (HLRC).

The substrate the paper's logging/recovery protocols sit on: vector
clocks and interval records (:mod:`repro.dsm.interval`), home assignment
(:mod:`repro.dsm.home`), protocol messages (:mod:`repro.dsm.messages`),
lock and barrier managers, the HLRC coherence engine
(:mod:`repro.dsm.hlrc`), the application API (:mod:`repro.dsm.api`), and
the system assembler (:mod:`repro.dsm.system`).
"""

from .interval import IntervalRecord, IntervalTable, VectorClock
from .home import (
    POLICIES,
    block_homes,
    explicit_homes,
    first_page_homes,
    round_robin_homes,
)
from .logginghooks import LoggingHooks, NoLogging
from .hlrc import HlrcNode
from .api import Dsm
from .system import DsmSystem, RunResult

__all__ = [
    "VectorClock",
    "IntervalRecord",
    "IntervalTable",
    "POLICIES",
    "round_robin_homes",
    "block_homes",
    "first_page_homes",
    "explicit_homes",
    "LoggingHooks",
    "NoLogging",
    "HlrcNode",
    "Dsm",
    "DsmSystem",
    "RunResult",
]
