"""Figure 4: estimation accuracy for different public/private ratios.

Paper scale: 1000 nodes, ratios 0.05–0.9. The paper finds the average error essentially
ratio-independent, with only the smallest public fractions showing a larger maximum
error (the occasional starved private node).
"""

from repro.experiments import run_figure

BENCH_RATIOS = (0.05, 0.2, 0.5)
BENCH_NODES = 150
BENCH_ROUNDS = 80


def test_fig4_public_private_ratio_sweep(once):
    result = once(run_figure, "ratio-sweep", nodes=BENCH_NODES, rounds=BENCH_ROUNDS,
                  seed=42, ratios=BENCH_RATIOS)
    print()
    print(result.to_text())

    avg_errors = result.scalars("est_err_avg_final", by="public_ratio")
    max_errors = result.scalars("est_err_max_final", by="public_ratio")
    assert set(avg_errors) == set(BENCH_RATIOS)
    # Average error stays small for every ratio (Figure 4a).
    assert all(error < 0.06 for error in avg_errors.values())
    # The spread across ratios is modest — no strong dependence on the ratio itself.
    values = sorted(avg_errors.values())
    assert values[-1] - values[0] < 0.05
    # The scarcest-public configuration has the (weakly) largest maximum error (4b).
    assert max_errors[0.05] >= max(max_errors[0.2], max_errors[0.5]) - 0.02
