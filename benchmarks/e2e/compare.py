"""Compare two result files written by ``run.py --out``.

    python3 benchmarks/e2e/compare.py A.json B.json [--layers]

A is the base (the parent commit, or the first of two sets of runs of
one commit), B the candidate.  For every workload and end-to-end metric
it prints both medians, the ratio B/A with its base, and a verdict:

``same``        medians within the metric's bound, both spreads within it
``worse``       B's median is beyond the bound in the bad direction
``better``      ... in the good direction
``unresolved``  a set's min-max range is wider than the bound, so the
                medians cannot be told apart -- unless every sample of
                one side beats every sample of the other

Metrics with bound 0 are simulated or counted and compare exactly.
Exits non-zero when any end-to-end metric is ``worse``.  Per-layer
metrics come from a single profiled repetition: exact ones (counts,
simulated quantities) are reported as same/differs, timings only as a
ratio, and neither affects the exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Tuple

#: Units of per-layer metrics that repeat exactly on a deterministic run.
EXACT_UNITS = ("count", "B", "MB", "sim_s")


def _spread(metric: Dict[str, Any]) -> float:
    median = abs(metric["median"])
    return (metric["max"] - metric["min"]) / median if median else 0.0


def verdict(a: Dict[str, Any], b: Dict[str, Any]) -> str:
    """Verdict for one end-to-end metric, A the base and B the candidate."""
    # as costs (higher = worse), so "lower" and "higher" metrics read alike
    sign = 1.0 if a["better"] == "lower" else -1.0
    cost_a = [sign * x for x in a["samples"]]
    cost_b = [sign * x for x in b["samples"]]
    med_a, med_b = sign * a["median"], sign * b["median"]
    bound = a["bound"]
    if bound == 0:
        if set(cost_a) == set(cost_b):
            return "same"
        return "better" if med_b < med_a else "worse"
    change = (med_b - med_a) / abs(med_a) if med_a else 0.0
    if max(_spread(a), _spread(b)) > bound:
        if max(cost_b) < min(cost_a):
            return "better"
        if min(cost_b) > max(cost_a) and change > bound:
            return "worse"
        return "unresolved"
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def compare(doc_a: Dict[str, Any], doc_b: Dict[str, Any],
            layers: bool) -> Tuple[List[str], Dict[str, int]]:
    """Rendered comparison lines and the count of each verdict."""
    lines: List[str] = []
    tally = {"same": 0, "worse": 0, "better": 0, "unresolved": 0}
    for name, wa in doc_a["workloads"].items():
        wb = doc_b["workloads"].get(name)
        if wb is None:
            lines.append(f"== {name}: missing from B")
            continue
        lines.append(f"== {name}")
        for metric, a in wa["end_to_end"].items():
            b = wb["end_to_end"][metric]
            v = verdict(a, b)
            tally[v] += 1
            ratio = b["median"] / a["median"] if a["median"] else float("nan")
            lines.append(
                f"  {metric:<16} A {a['median']:>12.6g}  B {b['median']:>12.6g} "
                f"{a['unit']:<6} B/A {ratio:6.3f} (base A = {a['median']:.6g}, "
                f"bound {a['bound']:.0%}, n={a['n']}/{b['n']})  {v}"
            )
        differing = []
        for metric, a in wa["per_layer"].items():
            b = wb["per_layer"].get(metric)
            if b is None:
                continue
            exact = a["unit"] in EXACT_UNITS
            differs = exact and a["value"] != b["value"]
            if differs:
                differing.append(metric)
            if layers:
                ratio = b["value"] / a["value"] if a["value"] else float("nan")
                note = ("differs" if differs else "same") if exact else ""
                lines.append(
                    f"  {metric:<28} A {a['value']:>12.6g}  B {b['value']:>12.6g} "
                    f"{a['unit']:<6} B/A {ratio:6.3f}  {note}"
                )
        if wa["per_layer"] and wb["per_layer"]:
            lines.append(
                f"  per-layer exact metrics differing: {len(differing)}"
                + (f" {differing}" if differing else "")
            )
    lines.append("verdicts: " + ", ".join(f"{n} {k}" for k, n in tally.items()))
    return lines, tally


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("a", help="base result file")
    parser.add_argument("b", help="candidate result file")
    parser.add_argument("--layers", action="store_true",
                        help="also print every per-layer metric")
    args = parser.parse_args(argv)
    with open(args.a) as fa, open(args.b) as fb:
        lines, tally = compare(json.load(fa), json.load(fb), args.layers)
    print("\n".join(lines))
    return 1 if tally["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
