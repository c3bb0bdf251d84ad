#!/usr/bin/env python3
"""Compare two suite outputs: ``compare.py A.json B.json`` (A = parent, B = change).

Prints one row per (end-to-end metric, workload) with the verdict the benchmark's
own bounds give:

``improved`` / ``regressed``
    B's median is better / worse than A's by more than the bound
    (``max(bound x |A's median|, floor)``, see ``metrics.END_TO_END``).
``unchanged``
    The medians are within the bound of each other.
``unresolved``
    The run-to-run spread (distance between the quartiles, of either side) is
    wider than the bound *and* the two sides' runs overlap - the benchmark
    cannot tell on this host; re-run on a quieter one. Not a pass, not a failure.

Also prints whether each workload's ``sim_digest`` and counts are identical (they
must be, for a change meant only to make the simulator faster). Exit status is
non-zero when any row is ``regressed``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent.parent.parent / "src"))

import metrics  # noqa: E402


def verdict(metric: metrics.Metric, a: Dict[str, object], b: Dict[str, object]) -> str:
    """Judge one (metric, workload) row from the two sides' per-run values."""
    sign = 1.0 if metric.better == "higher" else -1.0
    allowed = metric.allowed(a["median"])
    if max(a["q3"] - a["q1"], b["q3"] - b["q1"]) > allowed:
        a_runs = [sign * v for v in a["values"]]
        b_runs = [sign * v for v in b["values"]]
        if not (min(b_runs) > max(a_runs) or max(b_runs) < min(a_runs)):
            return "unresolved"
    gain = sign * (b["median"] - a["median"])
    if gain > allowed:
        return "improved"
    if gain < -allowed:
        return "regressed"
    return "unchanged"


def compare(a: Dict[str, object], b: Dict[str, object]) -> List[Sequence[str]]:
    rows: List[Sequence[str]] = []
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            rows.append((name, "*", "", "", "regressed (workload missing in B)"))
            continue
        for metric in metrics.END_TO_END:
            row_a = entry_a["end_to_end"].get(metric.name)
            row_b = entry_b["end_to_end"].get(metric.name)
            if row_a is None and row_b is None:
                continue  # est_abs_err where nothing estimates
            if row_a is None or row_b is None:
                rows.append((name, metric.name, "", "", "regressed (no value on one side)"))
                continue
            rows.append((
                name, metric.name, f"{row_a['median']:.6g}", f"{row_b['median']:.6g}",
                verdict(metric, row_a, row_b),
            ))
        same = (
            entry_a["sim_digest"] == entry_b["sim_digest"]
            and entry_a["counts"] == entry_b["counts"]
        )
        rows.append((name, "sim_digest+counts", "", "", "identical" if same else "differ"))
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    rows = compare(a, b)
    print(f"{'workload':<22}{'metric':<24}{'A median':>14}{'B median':>14}  verdict")
    for workload, metric, value_a, value_b, status in rows:
        print(f"{workload:<22}{metric:<24}{value_a:>14}{value_b:>14}  {status}")
    regressed = [row for row in rows if row[4].startswith("regressed")]
    unresolved = [row for row in rows if row[4] == "unresolved"]
    print(f"\n{len(regressed)} regressed, {len(unresolved)} unresolved, {len(rows)} rows")
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main())
