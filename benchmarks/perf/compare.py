#!/usr/bin/env python3
"""Compare two run sets written by ``run.py --out``.

    python3 benchmarks/perf/compare.py A.json B.json

``A`` is the parent, ``B`` the change (or a second set of the same
commit).  For every workload and end-to-end metric it prints both
medians, how much worse ``B`` reads, the benchmark's bound, and one
verdict, each workload in its own rows:

``ok``          B's median is within the bound of A's;
``regressed``   B's median is worse than A's by more than the bound;
``improved``    B's median is better than A's by more than the bound;
``unresolved``  the run-to-run spread (distance between the quartiles, as
                a share of the median) of either side is wider than the
                bound and the two sides' runs overlap, so the medians
                cannot tell a change from noise;
``skipped``     a side marked the metric not meaningful on its host.

It then lists every count-type per-layer metric whose value differs
between the two traced runs (simulated statistics and table sizes must be
bit-identical across runs of one commit).  Exit code 1 if any verdict is
``regressed``.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Optional, Tuple

#: per-layer units whose values are exact counts, not timings
COUNT_UNITS = ("count", "words", "bytes", "hops")


def verdict(a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[str, Optional[float]]:
    """``(label, worse_by)`` for one metric cell of A and of B.

    ``worse_by`` is B's median against A's as a share of A's, signed so
    that positive is worse whichever way the metric points."""
    if a["median"] is None or b["median"] is None:
        return "skipped", None
    sign = 1.0 if a["better"] == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / a["median"]
    bound = a["bound"]
    spread = max((cell["q3"] - cell["q1"]) / cell["median"] for cell in (a, b))
    if spread > bound and _overlap(a["values"], b["values"]):
        return "unresolved", worse_by
    if worse_by > bound:
        return "regressed", worse_by
    if worse_by < -bound:
        return "improved", worse_by
    return "ok", worse_by


def _overlap(a: List[float], b: List[float]) -> bool:
    return max(a) >= min(b) and max(b) >= min(a)


def count_changes(a: Dict[str, Any], b: Dict[str, Any]) -> List[Tuple[str, Any, Any]]:
    """Count-type per-layer metrics whose values differ."""
    return [
        (name, cell["value"], b[name]["value"])
        for name, cell in a.items()
        if cell["unit"] in COUNT_UNITS and name in b
        and cell["value"] != b[name]["value"]
    ]


def compare(doc_a: Dict[str, Any], doc_b: Dict[str, Any]) -> Tuple[List[str], int]:
    """Rendered rows and the number of ``regressed`` verdicts."""
    rows = [f"{'workload':<12} {'metric':<12} {'A median':>12} {'B median':>12} "
            f"{'worse by':>9} {'bound':>6}  verdict"]
    regressed = 0
    changed: List[str] = []
    # Counts depend on the inputs: only sets of one seed and size compare.
    same_inputs = all(doc_a[key] == doc_b[key] for key in ("seed", "smoke"))
    for name, a in doc_a["workloads"].items():
        b = doc_b["workloads"].get(name)
        if b is None:
            rows.append(f"{name:<12} missing from B")
            continue
        for metric, cell in a["end_to_end"].items():
            label, worse_by = verdict(cell, b["end_to_end"][metric])
            regressed += label == "regressed"
            medians = [f"{side['median']:>12.5g}" if side["median"] is not None
                       else f"{'null':>12}" for side in (cell, b["end_to_end"][metric])]
            delta = f"{worse_by:>+9.1%}" if worse_by is not None else f"{'':>9}"
            rows.append(f"{name:<12} {metric:<12} {medians[0]} {medians[1]} "
                        f"{delta} {cell['bound']:>6.0%}  {label}")
        if same_inputs:
            for metric, was, now in count_changes(a["per_layer"], b["per_layer"]):
                changed.append(f"{name:<12} {metric:<28} {was} -> {now}")
    if not same_inputs:
        rows.append("counts: not compared (the two sets used different inputs)")
    elif changed:
        rows.append("counts that differ between the traced runs:")
        rows.extend(changed)
    else:
        rows.append("counts: every count-type per-layer metric is identical")
    return rows, regressed


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    docs = []
    for path in args:
        with open(path) as fp:
            docs.append(json.load(fp))
    rows, regressed = compare(*docs)
    print("\n".join(rows))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
