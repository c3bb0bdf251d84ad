"""Figure 2: estimation error vs. history-window sizes, dynamic public/private ratio.

Paper scale: same join phase as Figure 1, then one new public node every 42 ms from
round 58, raising the ratio by about three percentage points. Small windows track the
change fastest; large windows lag but win after the ratio stabilises.
"""

from repro.experiments import run_figure

BENCH_NODES = 200
BENCH_ROUNDS = 110
BENCH_WINDOWS = ((10, 25), (50, 125))


def test_fig2_dynamic_ratio_history_windows(once):
    result = once(run_figure, "history-dynamic", nodes=BENCH_NODES, rounds=BENCH_ROUNDS,
                  seed=42, window_pairs=BENCH_WINDOWS)
    print()
    print(result.to_text())

    small = result.by("alpha")[BENCH_WINDOWS[0][0]]
    large = result.by("alpha")[BENCH_WINDOWS[1][0]]
    # The ratio actually grew.
    assert small.scalars["true_ratio"] > 0.2
    # Both estimators follow the change and stay within a few points of the new ratio.
    assert small.scalars["est_err_avg_final"] < 0.06
    assert large.scalars["est_err_avg_final"] < 0.1

    # Right after the growth phase the small window tracks the moving ratio at least as
    # well as the large window (the paper's crossover behaviour).
    growth_start_round = result.cells[0][0].param("ratio_growth_start_round")
    growth_ms = (growth_start_round + 15) * 1000.0
    small_error = [v for t, v in small.series["est_err_avg"] if t >= growth_ms][0]
    large_error = [v for t, v in large.series["est_err_avg"] if t >= growth_ms][0]
    assert small_error <= large_error + 0.02
