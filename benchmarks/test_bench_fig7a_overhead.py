"""Figure 7(a): protocol overhead — average load per node, public vs. private.

Paper scale: 1000 nodes at ratio 0.2, Croupier with α=25, γ=100, at most 10 estimates of
5 bytes piggy-backed per shuffle. The paper's claims asserted here: Croupier's private
overhead is less than half of Gozar's and less than a quarter of Nylon's, and its public
overhead is the lowest of the three NAT-aware protocols.
"""

from repro.experiments import run_figure

BENCH_NODES = 150
BENCH_ROUNDS = 55  # the load window is the second half of the run


def test_fig7a_protocol_overhead(once):
    result = once(run_figure, "overhead", nodes=BENCH_NODES, rounds=BENCH_ROUNDS, seed=42)
    print()
    print(result.to_text())

    private = result.scalars("private_bps", by="protocol")
    public = result.scalars("public_bps", by="protocol")
    assert private["croupier"] < 0.5 * private["gozar"]
    assert private["croupier"] < 0.25 * private["nylon"]
    assert public["croupier"] < public["gozar"]
    assert public["croupier"] < public["nylon"]
    # Sanity: the Cyclon baseline (public-only) is cheaper than every NAT-aware PSS.
    per_node = result.scalars("all_bps", by="protocol")
    assert 0 < per_node["cyclon"] < per_node["croupier"]
