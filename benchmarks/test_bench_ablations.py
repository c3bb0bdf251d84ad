"""Ablation benches for three of Croupier's design choices, run as the figures
``ablation-views`` (A1), ``ablation-piggyback`` (A3) and ``ablation-selection`` (A4).

These are not paper figures; they quantify why Croupier is built the way it is:
splitting the view keeps private nodes represented, piggy-backing estimates trades a few
bytes per message for estimation accuracy, and tail selection keeps views fresh.
"""

from repro.experiments import run_figure


def test_ablation_a1_view_representation(once):
    result = once(
        run_figure, "ablation-views", nodes=120, rounds=60, seed=7, latency="constant",
        protocols=("croupier", "cyclon", "gozar"), samples_per_node=15,
    )
    print()
    print(result.to_text())
    # Croupier's samples reflect the true 80% private share; NAT-oblivious Cyclon
    # under-represents private nodes.
    sampled = result.scalars("sample_private_fraction", by="protocol")
    croupier = result.by("protocol")["croupier"].scalars
    assert abs(1.0 - croupier["true_ratio"] - sampled["croupier"]) < 0.12
    assert sampled["croupier"] > sampled["cyclon"]


def test_ablation_a3_piggyback_bound(once):
    result = once(
        run_figure, "ablation-piggyback", nodes=100, rounds=70, seed=7,
        latency="constant", bounds=(0, 5, 10, 20),
    )
    print()
    print(result.to_text())
    # Message size grows monotonically with the bound: a static loss-free cell sends
    # as many messages whatever the bound, so the per-node load orders the same way.
    load = result.scalars("all_bps", by="max_estimates")
    sizes = [load[b] for b in (0, 5, 10, 20)]
    assert sizes == sorted(sizes)
    # Sharing estimates is never worse (within noise) than sharing none.
    errors = result.scalars("est_err_avg_final", by="max_estimates")
    assert errors[10] <= errors[0] + 0.02


def test_ablation_a4_selection_policy(once):
    result = once(
        run_figure, "ablation-selection", nodes=100, rounds=70, seed=7,
        latency="constant",
    )
    print()
    print(result.to_text())
    ages = result.scalars("view_age_mean", by="selection")
    assert set(ages) == {"tail", "random"}
    # Tail selection keeps descriptors at least as fresh as random selection.
    assert ages["tail"] <= ages["random"] + 1.0
