"""repro -- Coherence-Centric Logging and Recovery for Home-Based SDSM.

A from-scratch Python reproduction of Kongmunvattana & Tzeng (ICPP
1999): a home-based lazy-release-consistency software DSM running on a
deterministic cluster simulator, the paper's coherence-centric logging
(CCL) protocol and its traditional message-logging (ML) baseline,
prefetch-based crash recovery with bit-exact state verification, the
four evaluation workloads, and a harness regenerating every table and
figure of the paper.

Quickstart::

    from repro import ClusterConfig, DsmSystem, make_app, make_hooks_factory

    app = make_app("fft3d")
    system = DsmSystem(app, ClusterConfig.ultra5(), make_hooks_factory("ccl"))
    result = system.run()
    print(result.total_time, result.total_log_bytes)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured comparison.
"""

from .config import ClusterConfig, CpuConfig, DiskConfig, NetworkConfig
from .dsm import Dsm, DsmSystem, RunResult, VectorClock
from .apps import APP_REGISTRY, PAPER_APPS, DsmApplication, make_app
from .core import (
    NoLogging,
    RecoveryResult,
    make_hooks,
    make_hooks_factory,
    run_recovery_experiment,
)
from .harness import (
    logging_comparison,
    recovery_comparison,
    render_fig4,
    render_fig5,
    render_table1,
    render_table2_panel,
    run_application,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ClusterConfig",
    "NetworkConfig",
    "DiskConfig",
    "CpuConfig",
    "Dsm",
    "DsmSystem",
    "RunResult",
    "VectorClock",
    "DsmApplication",
    "APP_REGISTRY",
    "PAPER_APPS",
    "make_app",
    "NoLogging",
    "make_hooks",
    "make_hooks_factory",
    "RecoveryResult",
    "run_recovery_experiment",
    "run_application",
    "logging_comparison",
    "recovery_comparison",
    "render_table1",
    "render_table2_panel",
    "render_fig4",
    "render_fig5",
]
