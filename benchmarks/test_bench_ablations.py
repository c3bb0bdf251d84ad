"""Ablation benches for the three design choices of ``repro.experiments.ablations``.

These are not paper figures; they quantify why Croupier is built the way it is:
splitting the view keeps private nodes represented, piggy-backing estimates trades a few
bytes per message for estimation accuracy, and tail selection keeps views fresh.
"""

from repro.experiments.ablations import (
    run_piggyback_bound_ablation,
    run_selection_policy_ablation,
    run_view_representation_ablation,
)


def test_ablation_a1_view_representation(once):
    result = once(
        run_view_representation_ablation,
        protocols=("croupier", "cyclon", "gozar"),
        total_nodes=120,
        public_ratio=0.2,
        rounds=60,
        samples_per_node=15,
        seed=7,
    )
    print()
    print(result.to_text())
    # Croupier's samples reflect the true 80% private share; NAT-oblivious Cyclon
    # under-represents private nodes.
    assert abs(result.representation_bias("croupier")) < 0.12
    assert (
        result.private_fraction_in_samples["croupier"]
        > result.private_fraction_in_samples["cyclon"]
    )


def test_ablation_a3_piggyback_bound(once):
    result = once(
        run_piggyback_bound_ablation,
        bounds=(0, 5, 10, 20),
        total_nodes=100,
        rounds=70,
        seed=7,
    )
    print()
    print(result.to_text())
    # Message size grows monotonically with the bound.
    sizes = [result.message_bytes_by_bound[b] for b in (0, 5, 10, 20)]
    assert sizes == sorted(sizes)
    # Sharing estimates is never worse (within noise) than sharing none.
    assert result.avg_error_by_bound[10] <= result.avg_error_by_bound[0] + 0.02


def test_ablation_a4_selection_policy(once):
    result = once(
        run_selection_policy_ablation,
        total_nodes=100,
        rounds=70,
        seed=7,
    )
    print()
    print(result.to_text())
    assert set(result.avg_error_by_policy) == {"tail", "random"}
    # Tail selection keeps descriptors at least as fresh as random selection.
    assert (
        result.mean_view_age_by_policy["tail"]
        <= result.mean_view_age_by_policy["random"] + 1.0
    )
