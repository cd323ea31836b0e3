"""The experiment harness.

Regenerates every table and figure of the paper's evaluation:
:mod:`repro.harness.runner` runs the campaigns,
:mod:`repro.harness.tables` and :mod:`repro.harness.figures` render
Table 1/2 and Figures 4/5, :mod:`repro.harness.experiments` defines
every experiment and its claims once, :mod:`repro.harness.sweep` runs
its variants, and :mod:`repro.harness.scales` maps dataset scales.
``python -m repro experiments`` drives the whole evaluation from the
command line.
"""

from .runner import (
    LoggingComparison,
    ProtocolRow,
    RecoveryComparison,
    logging_comparison,
    recovery_comparison,
    run_application,
)
from .scales import SCALES, app_kwargs
from .tables import render_table1, render_table2_panel, table1_rows
from .figures import render_fig4, render_fig5
from .sweep import SweepPoint, parallel_map, render_sweep, sweep
from .breakdown import breakdown_rows, render_breakdown

__all__ = [
    "run_application",
    "ProtocolRow",
    "LoggingComparison",
    "logging_comparison",
    "RecoveryComparison",
    "recovery_comparison",
    "SCALES",
    "app_kwargs",
    "render_table1",
    "render_table2_panel",
    "table1_rows",
    "render_fig4",
    "render_fig5",
    "SweepPoint",
    "sweep",
    "parallel_map",
    "render_sweep",
    "breakdown_rows",
    "render_breakdown",
]
