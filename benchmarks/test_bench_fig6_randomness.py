"""Figure 6: randomness properties — in-degree distribution, path length, clustering.

Paper scale: 1000 nodes (ratio 0.2), 250 rounds, protocols Croupier, Gozar, Nylon and
Cyclon (public-only baseline). The benchmark runs a reduced population and asserts the
qualitative claims: every NAT-aware protocol's path length stays close to Cyclon's, and
private-node in-degrees are concentrated rather than starved.
"""

from repro.experiments import run_figure

BENCH_NODES = 150
BENCH_ROUNDS = 80
BENCH_PROTOCOLS = ("croupier", "gozar", "nylon", "cyclon")


def test_fig6_randomness_properties(once):
    result = once(run_figure, "randomness", nodes=BENCH_NODES, rounds=BENCH_ROUNDS,
                  seed=42, protocols=BENCH_PROTOCOLS)
    print()
    print(result.to_text())

    by_protocol = result.by("protocol")
    cyclon_path_length = by_protocol["cyclon"].series["path_length"][-1][1]
    for name in ("croupier", "gozar", "nylon"):
        measured = by_protocol[name]
        # Figure 6(b): average path length tracks Cyclon closely.
        assert measured.series["path_length"][-1][1] <= cyclon_path_length + 1.0
        # Figure 6(c): clustering stays low (well below a clustered/complete graph).
        assert measured.series["clustering"][-1][1] < 0.5
        # Figure 6(a): nobody is isolated — minimum in-degree is at least 1.
        assert min(measured.histograms["in_degree"]) >= 1
        # Out-degree (view occupancy) is full or nearly full for live overlay health.
        assert measured.scalars["indeg_mean"] >= 8.0
