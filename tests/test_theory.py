"""Both engines' Figure 7(a) ``overhead`` cells against the load law (tests/theory.py).

The cells are the figure's own (100 nodes, 35 rounds, constant latency) over a
seed ensemble; each seed's per-class load must lie within ``TOLERANCE`` of the
law. The band covers what the law leaves out: the public sender's own estimate
(+0.4 % on public load) and which whole exchanges fall inside each node's
17-round load window (the object engine's seeds read within 0.4 % of the law).
It is narrower than the smallest wire change, one estimate fewer per message,
which moves the private load 1.2 %.
"""

import dataclasses

import pytest

from theory import croupier_messages, cyclon_messages, shuffle_load
from repro.constants import DEFAULT_SHUFFLE_SIZE
from repro.experiments.figures import FIGURES
from repro.experiments.matrix import run_cell

SEEDS = (7, 19, 42)
TOLERANCE = 0.01
#: Seconds per round: the columnar engine is round-synchronous; object-engine
#: rounds are 1 000 ms plus a uniform 0-50 ms jitter (``PssConfig``'s defaults).
PERIOD_S = {"object": 1.025, "columnar": 1.0}

COLUMNAR_ESTIMATES = pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the columnar engine piggy-backs the sender's own estimate and its 2 most "
    "recent cached ones, not max_estimates = 10: 345 B/s private against 425"))


def _cell(protocol, engine):
    (cell,) = FIGURES["overhead"].cells(100, 35, protocols=(protocol,))
    return dataclasses.replace(cell, engine=engine)


@pytest.mark.parametrize("engine, protocol", [
    ("object", "croupier"),
    pytest.param("columnar", "croupier", marks=COLUMNAR_ESTIMATES),
    ("object", "cyclon"),
    ("columnar", "cyclon"),
])
def test_overhead_cells_follow_the_load_law(engine, protocol):
    cell = _cell(protocol, engine)
    if protocol == "croupier":
        messages = croupier_messages(DEFAULT_SHUFFLE_SIZE, dict(cell.params)["max_estimates"])
    else:
        messages = cyclon_messages(DEFAULT_SHUFFLE_SIZE)
    private, public = shuffle_load(messages, cell.public_ratio, PERIOD_S[engine])
    for seed in SEEDS:
        scalars = run_cell(cell, root_seed=seed, latency="constant").scalars
        assert scalars["public_bps"] == pytest.approx(public, rel=TOLERANCE), seed
        if cell.public_ratio < 1.0:
            assert scalars["private_bps"] == pytest.approx(private, rel=TOLERANCE), seed
