"""One-shot evaluation report generator.

``python -m repro report`` (or :func:`generate_report`) runs the whole
evaluation -- Table 1, the four Table 2 panels in both configurations,
Figures 4 and 5 -- and emits a single self-contained Markdown document
with every artefact and the paper rows' claims of the experiment table
(:mod:`repro.harness.experiments`) checked on the comparisons it ran,
suitable for committing next to EXPERIMENTS.md after a calibration
change.
"""

from __future__ import annotations

from typing import List, Optional

from ..apps import PAPER_APPS
from ..config import ClusterConfig
from .experiments import EXPERIMENTS, TABLE2_CLAIMS
from .figures import render_fig4, render_fig5
from .runner import logging_comparison, recovery_comparison
from .tables import render_table1, render_table2_panel

__all__ = ["generate_report"]


def generate_report(
    config: Optional[ClusterConfig] = None,
    scale: str = "test",
    apps: Optional[List[str]] = None,
    failed_node: int = 3,
    include_recovery: bool = True,
) -> str:
    """Run the evaluation and return the full Markdown report."""
    config = config or ClusterConfig.ultra5()
    apps = list(apps or PAPER_APPS)
    lines: List[str] = [
        "# Evaluation report",
        "",
        f"Cluster: {config.num_nodes} nodes, {config.page_size} B pages, "
        f"scale `{scale}`.",
        "",
        "## Table 1 — application characteristics",
        "",
        "```",
        render_table1(apps),
        "```",
        "",
        "## Table 2 — overhead details",
        "",
    ]

    sound, paper = [], []
    for name in apps:
        sound.append(logging_comparison(name, config, scale))
        paper.append(logging_comparison(name, config, scale, paper_mode=True))

    for s_cmp, p_cmp in zip(sound, paper):
        lines += [
            "```",
            render_table2_panel(s_cmp),
            "",
            "[paper-faithful configuration]",
            render_table2_panel(p_cmp),
            "```",
            "",
        ]

    lines += [
        "## Figure 4 — failure-free execution time",
        "",
        "```",
        render_fig4(sound),
        "```",
        "",
    ]

    points = {
        s_cmp.app_name: {"sound": s_cmp, "paper": p_cmp}
        for s_cmp, p_cmp in zip(sound, paper)
    }
    claims = [("E2-E5", c) for c in TABLE2_CLAIMS]
    claims += [("E6", c) for c in EXPERIMENTS["fig4"].claims]

    if include_recovery:
        recoveries = [
            recovery_comparison(name, config, scale, failed_node=failed_node)
            for name in apps
        ]
        lines += [
            "## Figure 5 — crash recovery time",
            "",
            "```",
            render_fig5(recoveries),
            "```",
            "",
        ]
        for rec in recoveries:
            points[rec.app_name]["rec"] = rec
        claims += [("E7", c) for c in EXPERIMENTS["fig5"].claims]

    lines += ["## Claim checks", ""]
    lines += [
        f"- {exp_id}: {claim.text} -- "
        + ("OK" if claim.holds(points) else "VIOLATED")
        for exp_id, claim in claims
    ]
    lines.append("")
    return "\n".join(lines)
