#!/usr/bin/env python3
"""Quickstart: run a small Croupier system and inspect what the PSS delivers.

This builds a 100-node system (20 public, 80 private nodes behind restricted-cone NATs),
runs 60 one-second gossip rounds in the discrete-event simulator and prints:

* the true public/private ratio and the mean estimate across nodes,
* the average and maximum estimation error (the paper's Figures 1–5 metrics),
* overlay health (biggest cluster, path length, clustering coefficient),
* the public/private mix of samples drawn through the peer-sampling API.

Run it with::

    python examples/quickstart.py [seed]

Tier-1 (``tests/test_examples.py``) runs this script — and every other example —
as a subprocess smoke test, and CI runs tier-1 among the gates of
``scripts/gates.py``. Run every gate locally with::

    python3 scripts/gates.py

or explore the full protocol × scenario × size × seed grid yourself::

    PYTHONPATH=src python -m repro matrix --list
"""

from __future__ import annotations

import sys

from repro.experiments import quick_croupier_run


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    print("Croupier quickstart — 20 public + 80 private nodes, 60 gossip rounds")
    print(f"(seed = {seed})")
    print()
    result = quick_croupier_run(n_public=20, n_private=80, rounds=60, seed=seed)
    print(result.to_text())
    print()
    expected_public = result.true_ratio
    observed_public = result.sample_counts["public"] / max(
        1, sum(result.sample_counts.values())
    )
    print(
        "samples drawn through the PSS API are "
        f"{observed_public:.1%} public vs. a true share of {expected_public:.1%} — "
        "the split views plus the ratio estimator keep sampling unbiased."
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
