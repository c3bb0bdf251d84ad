"""Seed-fidelity pin: the optimised object engine still computes the seed's answer.

1000 Croupier nodes × 100 rounds, seed 3, must reproduce **bit for bit** the event
count and the mean ratio estimate measured on the seed implementation (commit
8b078d8) — the one check of the retired hot-path benchmark that no other gate makes
(`tests/data/golden_croupier_seed7.json` pins a 200-node run against *this* code
base, not against the seed). How fast the run is, end to end and per layer, is
measured by the suite (`python3 benchmarks/suite/run.py`, `obj-croupier-static`),
which has a noise band and a judge; nothing here reads a clock.
"""

from repro.metrics.probes import collect_ratio_estimates
from repro.workload.scenario import Scenario, ScenarioConfig

#: Outputs of the seed implementation for this scenario.
SEED_EVENTS_EXECUTED = 292357
SEED_MEAN_ESTIMATE = 0.20146065899706894


def test_croupier_1000x100_reproduces_the_seed_outputs(once):
    def run():
        scenario = Scenario(ScenarioConfig(protocol="croupier", seed=3))
        scenario.populate(n_public=200, n_private=800)
        scenario.run_rounds(100)
        estimates = [e for e in collect_ratio_estimates(scenario) if e is not None]
        return scenario.sim.events_executed, sum(estimates) / len(estimates)

    events, mean_estimate = once(run)
    assert events == SEED_EVENTS_EXECUTED
    assert mean_estimate == SEED_MEAN_ESTIMATE
