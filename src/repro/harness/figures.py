"""Text renderers for the paper's figures.

Both evaluation figures are normalised bar charts; we render them as
ASCII bars plus the underlying numbers.

* **Figure 4** -- failure-free execution time under None (=1.0), ML,
  and CCL, per application.
* **Figure 5** -- recovery time under re-execution (=1.0), ML-recovery,
  and CCL recovery, per application.
"""

from __future__ import annotations

from typing import Sequence

from .runner import LoggingComparison, RecoveryComparison

__all__ = ["render_fig4", "render_fig5"]

_BAR_WIDTH = 44


def _bar(value: float, vmax: float) -> str:
    n = max(1, int(round(_BAR_WIDTH * value / max(vmax, 1e-12))))
    return "#" * n


def render_fig4(comparisons: Sequence[LoggingComparison]) -> str:
    """ASCII rendering of Figure 4 (impacts of logging on execution time)."""
    lines = [
        "Figure 4 -- Impacts of Logging Protocols on Execution Time",
        "(normalised to the no-logging home-based TreadMarks run)",
        "",
    ]
    vmax = max(
        cmp.normalized_time(p) for cmp in comparisons for p in ("none", "ml", "ccl")
    )
    label = {"none": "None", "ml": "ML  ", "ccl": "CCL "}
    for cmp in comparisons:
        lines.append(cmp.app_name)
        for protocol in ("none", "ml", "ccl"):
            v = cmp.normalized_time(protocol)
            overhead = 100.0 * (v - 1.0)
            suffix = "" if protocol == "none" else f"  (+{overhead:.1f}%)"
            lines.append(
                f"  {label[protocol]} {v:5.3f} |{_bar(v, vmax)}{suffix}"
            )
        lines.append("")
    return "\n".join(lines)


def render_fig5(comparisons: Sequence[RecoveryComparison]) -> str:
    """ASCII rendering of Figure 5 (crash recovery speed)."""
    lines = [
        "Figure 5 -- Impacts of Logging Protocols on Recovery Time",
        "(normalised to re-execution from the initial state)",
        "",
    ]
    label = {
        "reexec": "Re-Execution",
        "ml": "ML-Recovery ",
        "ccl": "Our Recovery",
    }
    for cmp in comparisons:
        lines.append(cmp.app_name)
        for scheme in ("reexec", "ml", "ccl"):
            v = cmp.normalized(scheme)
            red = 100.0 * cmp.reduction(scheme)
            suffix = "" if scheme == "reexec" else f"  (-{red:.1f}%)"
            lines.append(f"  {label[scheme]} {v:5.3f} |{_bar(v, 1.0)}{suffix}")
        lines.append("")
    return "\n".join(lines)
