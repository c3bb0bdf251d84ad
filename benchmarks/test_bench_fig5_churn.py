"""Figure 5: estimation accuracy under continuous churn.

Paper scale: 1000 nodes at ratio 0.2, churn of 0.1 %, 1 %, 2.5 % and 5 % of nodes
replaced per round starting at t=61. The paper's finding — churn up to 5 %/round has no
significant effect on estimation — is asserted by comparing against the churn-free run.
"""

from repro.experiments import run_figure

BENCH_LEVELS = (0.0, 0.01, 0.05)
BENCH_NODES = 120
BENCH_ROUNDS = 90


def test_fig5_estimation_under_churn(once):
    result = once(run_figure, "churn", nodes=BENCH_NODES, rounds=BENCH_ROUNDS,
                  seed=42, churn_levels=BENCH_LEVELS)
    print()
    print(result.to_text())

    avg_errors = result.scalars("est_err_avg_final", by="churn_fraction")
    assert set(avg_errors) == set(BENCH_LEVELS)
    calm = avg_errors[0.0]
    heavy = avg_errors[0.05]
    # Heavy churn degrades the estimate only mildly (paper: "no significant effect").
    assert heavy < 0.08
    assert heavy <= calm + 0.05
