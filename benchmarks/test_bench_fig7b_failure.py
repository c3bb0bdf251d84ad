"""Figure 7(b): connectivity after catastrophic failure.

Paper scale: 1000 nodes with 80 % private, failures of 40–90 % of all nodes at one
instant; Croupier's biggest surviving cluster stays above ~85 % of the survivors at 90 %
failures, far ahead of Gozar and Nylon. The benchmark uses a reduced population and the
two harshest failure levels, asserting that Croupier remains at least as well connected
as both baselines.
"""

from repro.experiments import run_figure

BENCH_NODES = 300
BENCH_FRACTIONS = (0.8, 0.9)
BENCH_PROTOCOLS = ("croupier", "gozar", "nylon")
WARMUP_ROUNDS = 40


def test_fig7b_connectivity_after_catastrophic_failure(once):
    result = once(run_figure, "failure", nodes=BENCH_NODES, rounds=WARMUP_ROUNDS,
                  seed=42, protocols=BENCH_PROTOCOLS, fractions=BENCH_FRACTIONS)
    print()
    print(result.to_text())

    cluster = {
        (cell.protocol, cell.param("failure_fraction")):
            payload.scalars["biggest_cluster_fraction"]
        for cell, payload in result.cells
    }
    for fraction in BENCH_FRACTIONS:
        croupier = cluster["croupier", fraction]
        # Croupier keeps the overlay at least as connected as both baselines.
        assert croupier >= cluster["gozar", fraction] - 0.03
        assert croupier >= cluster["nylon", fraction] - 0.03
    # And at 90% failures it still holds a large majority of survivors together.
    assert cluster["croupier", 0.9] > 0.7
