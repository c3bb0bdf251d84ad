"""Figure 3: effect of system size on estimation accuracy.

Paper scale: systems of 50, 100, 500, 1000 and 5000 nodes at ratio 0.2 with α=25, γ=50.
The benchmark sweeps a reduced ladder with the same ratio; the paper's observation —
accuracy improves with system size and saturates — is asserted on the endpoints.
"""

from repro.experiments import run_figure

BENCH_SIZES = (50, 150, 400)
BENCH_ROUNDS = 80


def test_fig3_system_size_sweep(once):
    result = once(run_figure, "system-size", nodes=BENCH_SIZES[-1], rounds=BENCH_ROUNDS,
                  seed=42, sizes=BENCH_SIZES)
    print()
    print(result.to_text())

    avg_errors = result.scalars("est_err_avg_final", by="size")
    max_errors = result.scalars("est_err_max_final", by="size")
    assert set(avg_errors) == set(BENCH_SIZES)
    # Every size converges to a small error...
    assert all(error < 0.06 for error in avg_errors.values())
    # ...and the largest system is at least as accurate as the smallest (Figure 3).
    assert avg_errors[BENCH_SIZES[-1]] <= avg_errors[BENCH_SIZES[0]] + 0.005
    assert max_errors[BENCH_SIZES[-1]] <= max_errors[BENCH_SIZES[0]] + 0.01
