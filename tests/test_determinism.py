"""Determinism guards for the hot-path refactor.

The lazy-ageing descriptor/view machinery, the cached-endpoint network path and the
kernel's (callback, arg) event slots were all written to consume randomness and order
events exactly as the original eager implementation did. These tests pin that down:

* two full same-seed Croupier runs must be indistinguishable — same event order
  (event/packet counters and the full per-round estimate series), same ratio-estimate
  series, same final view contents;
* the current code must still reproduce, bit for bit, a golden fingerprint captured
  from the pre-refactor (seed) implementation
  (``tests/data/golden_croupier_seed7.json``).

* the golden fingerprint must come out of processes started under several fixed
  ``PYTHONHASHSEED`` values: nothing on the hot path may iterate a set or dict whose
  order depends on string hashing.

* paths no golden file covers — every protocol under churn + loss with the
  paper's NAT mixture, and Croupier with random partner selection (ablation A4) —
  are pinned by literal fingerprints (:data:`PINNED_FINGERPRINTS`), recorded before
  the shuffle skeleton was shared across the protocols.

If an optimisation ever changes RNG consumption or event ordering, these tests fail
first — regenerate the golden file only for a *deliberate* semantic change.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.membership.plugin import get_plugin
from repro.membership.policies import SelectionPolicy
from repro.metrics.probes import collect_ratio_estimates
from repro.nat.mixture import NAT_MIXTURES
from repro.simulator.latency import UniformLatency
from repro.workload.scenario import Scenario, ScenarioConfig

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_croupier_seed7.json"


def run_croupier(seed=7, n_public=40, n_private=160, rounds=30, per_round_series=False):
    """One full Croupier run; returns a JSON-serialisable fingerprint of everything
    the experiments read out: estimate series, final views, event/packet counters.

    Reads everything through the live handles (``live_handles()`` preserves
    node-creation order, and :func:`collect_ratio_estimates` applies the
    same two-round exclusion the pre-plugin accessor did), so the fingerprint is
    bit-compatible with the golden file captured from the seed implementation.
    """
    scenario = Scenario(ScenarioConfig(protocol="croupier", seed=seed))
    scenario.populate(n_public=n_public, n_private=n_private)
    series = []
    if per_round_series:
        for _ in range(rounds):
            scenario.run_rounds(1)
            series.append(collect_ratio_estimates(scenario))
    else:
        scenario.run_rounds(rounds)
    views = {}
    for pss in (handle.pss for handle in scenario.live_handles()):
        views[str(pss.address.node_id)] = {
            "public": sorted([d.node_id, d.age] for d in pss.public_view),
            "private": sorted([d.node_id, d.age] for d in pss.private_view),
        }
    fingerprint = {
        "seed": seed,
        "n_public": n_public,
        "n_private": n_private,
        "rounds": rounds,
        "events_executed": scenario.sim.events_executed,
        "packets_sent": scenario.network.packets_sent,
        "packets_delivered": scenario.network.packets_delivered,
        "estimates": collect_ratio_estimates(scenario),
        "views": views,
    }
    if per_round_series:
        fingerprint["series"] = series
    return fingerprint


class TestSameSeedRuns:
    def test_two_full_runs_are_identical(self):
        """Two 200-node same-seed runs: identical event order, estimates and views.

        The per-round estimate series is collected after every single round, so any
        divergence in event ordering or RNG consumption surfaces at the exact round
        it first occurs.
        """
        first = run_croupier(per_round_series=True)
        second = run_croupier(per_round_series=True)
        assert first["events_executed"] == second["events_executed"]
        assert first["packets_sent"] == second["packets_sent"]
        assert first["packets_delivered"] == second["packets_delivered"]
        for round_index, (a, b) in enumerate(zip(first["series"], second["series"])):
            assert a == b, f"estimate series diverged at round {round_index + 1}"
        assert first["views"] == second["views"]
        assert first == second

    def test_different_seeds_diverge(self):
        """Sanity check that the fingerprint is actually sensitive to the seed."""
        a = run_croupier(seed=7, rounds=10)
        b = run_croupier(seed=8, rounds=10)
        assert a["estimates"] != b["estimates"]


class TestGoldenFingerprint:
    def test_matches_pre_refactor_seed_implementation(self):
        """Bit-identical with the eager (pre-lazy-ageing) implementation.

        The golden file was generated by the seed code before the hot-path refactor;
        every counter, estimate float and view entry must match exactly.
        """
        golden = json.loads(GOLDEN_PATH.read_text())
        current = json.loads(
            json.dumps(
                run_croupier(
                    seed=golden["seed"],
                    n_public=golden["n_public"],
                    n_private=golden["n_private"],
                    rounds=golden["rounds"],
                )
            )
        )
        assert current["events_executed"] == golden["events_executed"]
        assert current["packets_sent"] == golden["packets_sent"]
        assert current["estimates"] == golden["estimates"]
        assert current["views"] == golden["views"]
        assert current == golden


class TestHashSeedIndependence:
    """The golden run, repeated in fresh interpreters with different string hashing."""

    @pytest.mark.parametrize("hash_seed", ["0", "1", "2701"])
    def test_golden_fingerprint_under_hash_seed(self, hash_seed):
        golden = json.loads(GOLDEN_PATH.read_text())
        search_path = [str(Path(repro.__file__).resolve().parents[1]), str(Path(__file__).parent)]
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            search_path + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        script = (
            "import json, sys\n"
            "from test_determinism import run_croupier\n"
            f"json.dump(run_croupier(seed={golden['seed']}, n_public={golden['n_public']}, "
            f"n_private={golden['n_private']}, rounds={golden['rounds']}), sys.stdout)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            timeout=300, check=True,
        )
        assert json.loads(result.stdout) == golden


def protocol_fingerprint(
    protocol, seed, n_public, n_private, rounds, churn=0.0, loss_rate=0.0, **pss_overrides
):
    """Events, packets, sorted drop reasons and a digest of every live node's sorted
    view ids after a small object-engine run of ``protocol`` under the paper's NAT
    mixture, replacing a ``churn`` fraction of each node class after every round."""
    config = get_plugin(protocol).default_config()
    for name, value in pss_overrides.items():
        setattr(config, name, value)
    scenario = Scenario(
        ScenarioConfig(
            protocol=protocol,
            seed=seed,
            pss_config=config,
            latency=UniformLatency(10.0, 150.0, seed=seed),
            nat_mixture=NAT_MIXTURES["paper"],
        )
    )
    scenario.set_loss_rate(loss_rate)
    scenario.populate(n_public=n_public, n_private=n_private)
    for _ in range(rounds):
        scenario.run_rounds(1)
        if churn:
            scenario.churn_step(churn)
    views = [
        [handle.node_id, sorted(a.node_id for a in handle.pss.neighbor_addresses())]
        for handle in sorted(scenario.live_handles(), key=lambda h: h.node_id)
    ]
    return {
        "events": scenario.sim.events_executed,
        "packets": scenario.network.packets_sent,
        "drops": sorted(scenario.monitor.drop_reasons.items()),
        "views": hashlib.sha256(json.dumps(views).encode()).hexdigest()[:16],
    }


#: One small churn + loss cell per protocol, plus Croupier with random partner
#: selection on a static cell.
PINNED_CELLS = {
    name: dict(protocol=name, seed=11, n_public=12, n_private=28, rounds=40,
               churn=0.03, loss_rate=0.05)
    for name in ("croupier", "cyclon", "gozar", "nylon")
}
PINNED_CELLS["croupier-random"] = dict(
    protocol="croupier", seed=7, n_public=15, n_private=45, rounds=30,
    selection=SelectionPolicy.RANDOM,
)

PINNED_FINGERPRINTS = {
    "croupier": {
        "events": 3855, "packets": 2422, "views": "a7093cf96b097411",
        "drops": [("dead_host", 2), ("link_loss", 127), ("unknown_destination", 619)],
    },
    "croupier-random": {
        "events": 5260, "packets": 3511, "views": "9909c4463df3c67e", "drops": [],
    },
    "cyclon": {
        "events": 3729, "packets": 2297, "views": "df2073bf0d56c898",
        "drops": [("dead_host", 68), ("link_loss", 118), ("nat_filtered", 443),
                  ("unknown_destination", 227)],
    },
    "gozar": {
        "events": 5495, "packets": 4157, "views": "e69f6bca151b77b2",
        "drops": [("dead_host", 65), ("link_loss", 216), ("nat_filtered", 84),
                  ("unknown_destination", 752)],
    },
    "nylon": {
        "events": 21921, "packets": 21497, "views": "a1b5257534fbcdd4",
        "drops": [("dead_host", 1392), ("link_loss", 1067), ("nat_filtered", 617),
                  ("unknown_destination", 1728)],
    },
}


class TestPinnedFingerprints:
    @pytest.mark.parametrize("cell", sorted(PINNED_CELLS))
    def test_fingerprint_unchanged(self, cell):
        assert protocol_fingerprint(**PINNED_CELLS[cell]) == PINNED_FINGERPRINTS[cell]
