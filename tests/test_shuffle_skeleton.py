"""Properties of the one shuffle skeleton every object-engine protocol runs.

* **Knob honesty.** Every :class:`~repro.membership.base.PssConfig` field is read by
  every registered protocol, and ``selection`` really changes which partner a node
  picks. Every :class:`~repro.experiments.matrix.CellSpec` and
  :class:`~repro.workload.ScenarioConfig` field is set off its default by some
  product cell (a gate grid's or a figure's), or a literal names it with a reason.
* **No silent paths.** On small paper-NAT cells, static and under churn, every packet
  a protocol receives has a handler, except the types a literal names with a reason.
* **Invariants over all protocols.** On a small churn + loss cell with the paper's
  NAT mixture, after every round: no view holds its owner or a duplicate id; a full
  view makes room only by evicting entries this node just sent (the swapper merge);
  and, under Croupier's declared strategy, the public view names only public nodes,
  the private view only private nodes, and no request reaches a private node.
"""

import dataclasses
import inspect
import re
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

from repro import cli
from repro.experiments.figures import FIGURES
from repro.experiments.matrix import CellSpec, run_cell
from repro.membership.base import NatStrategy, PssConfig
from repro.membership.descriptor import NodeDescriptor
from repro.membership.plugin import get_plugin, protocol_names
from repro.membership.policies import SelectionPolicy
from repro.membership.view import PartialView
from repro.nat.mixture import NAT_MIXTURES
from repro.simulator.component import Component
from repro.simulator.latency import UniformLatency
from repro.workload.scenario import Scenario, ScenarioConfig


def _pss_config(protocol, **overrides):
    config = get_plugin(protocol).default_config()
    for name, value in overrides.items():
        setattr(config, name, value)
    return config


#: (component, message type) pairs that may reach ``Component.on_unhandled``, and why.
#: Object Nylon answers every ``KeepAlive`` with a ``KeepAliveAck`` that no Nylon
#: handler reads: about 40 % of Nylon's bytes in the ``overhead`` cell and most of
#: the engines' Nylon load gap (ROADMAP items 1(i) and 20). Deleting the ack moves
#: every object Nylon golden, so it is a change of its own.
UNHANDLED_BY_DESIGN = {("Nylon", "KeepAliveAck")}


@pytest.mark.parametrize("dynamics", ["static", "churn"])
@pytest.mark.parametrize("protocol", ["croupier", "cyclon", "gozar", "nylon"])
def test_only_named_message_types_go_unhandled(monkeypatch, protocol, dynamics):
    unhandled = Counter()
    monkeypatch.setattr(
        Component,
        "on_unhandled",
        lambda self, packet: unhandled.update(
            [(type(self).__name__, type(packet.message).__name__)]
        ),
    )
    scenario = Scenario(
        ScenarioConfig(
            protocol=protocol, seed=11, latency="constant", nat_mixture=NAT_MIXTURES["paper"]
        )
    )
    scenario.populate(n_public=6, n_private=24)
    for _ in range(15):
        if dynamics == "churn":
            scenario.churn_step(0.05)
        scenario.run_rounds(1)
    expected = {pair for pair in UNHANDLED_BY_DESIGN if pair[0].lower() == protocol}
    assert set(unhandled) == expected


#: ``CellSpec`` / ``ScenarioConfig`` fields no product cell sets off their default,
#: and why each stays.
UNSET_BY_DESIGN = {
    "ScenarioConfig.identify_nat_types": "Algorithm 1 either earns a cell or goes "
    "(ROADMAP item 18); only its own tests and the columnar refusal set it today",
}

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


class _Built(BaseException):
    """Raised by a patched ``ScenarioConfig.validate``: a cell stops at its first
    scenario build, which is all the census of its config needs."""


def _product_configs():
    """(cell, first ScenarioConfig it builds) for every cell a gate grid or a figure
    (at the CLI's default size) runs."""
    sys.path.insert(0, str(SCRIPTS))
    import gates

    specs = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_dry_run_matrix", specs.append)
        for gate in gates.GATES:
            for grid in filter(None, (gate.grid, *gate.dry_runs)):
                cli.main(["matrix", *grid, "--dry-run"])
        cells = [(cell, spec.latency) for spec in specs for cell in spec.validate()]
        cells += [(cell, "king") for figure in FIGURES.values() for cell in figure.cells(100, 60)]

        def stop(config):
            raise _Built(config)

        patch.setattr(ScenarioConfig, "validate", stop)
        built = []
        for cell, latency in cells:
            with pytest.raises(_Built) as stopped:
                run_cell(cell, root_seed=42, latency=latency)
            built.append((cell, stopped.value.args[0]))
    return built


def _unset(records, cls):
    """``cls``'s defaulted fields that no record sets to another value."""
    unset = []
    for spec in fields(cls):
        if spec.default is dataclasses.MISSING and spec.default_factory is dataclasses.MISSING:
            continue  # required: every record sets it
        default = (spec.default if spec.default is not dataclasses.MISSING
                   else spec.default_factory())
        if all(getattr(record, spec.name) == default for record in records):
            unset.append(f"{cls.__name__}.{spec.name}")
    return unset


class TestKnobHonesty:
    def test_every_cell_and_scenario_field_is_set_by_a_product_cell(self):
        product_configs = _product_configs()
        unset = (_unset([cell for cell, _ in product_configs], CellSpec)
                 + _unset([config for _, config in product_configs], ScenarioConfig))
        assert sorted(unset) == sorted(UNSET_BY_DESIGN)

    @pytest.mark.parametrize("protocol", protocol_names())
    def test_no_pss_config_field_is_ignored(self, protocol):
        """Every common field is read somewhere in the protocol's own class hierarchy."""
        cls = get_plugin(protocol).factory
        source = "".join(
            inspect.getsource(klass)
            for klass in cls.__mro__
            if klass.__module__.startswith("repro.")
        )
        ignored = [
            f.name for f in fields(PssConfig) if not re.search(rf"config\.{f.name}\b", source)
        ]
        assert ignored == []

    @staticmethod
    def _first_partners(protocol, selection, seeds=range(10)):
        """The partner node 1 picks, per seed, from a view whose oldest entry is unique."""
        partners = []
        for seed in seeds:
            scenario = Scenario(
                ScenarioConfig(
                    protocol=protocol,
                    seed=seed,
                    pss_config=_pss_config(protocol, selection=selection),
                    latency="constant",
                )
            )
            scenario.populate(n_public=12, n_private=0)
            pss = scenario.pss_of(1)
            pss.view.clear()
            others = [h.address for h in scenario.live_handles() if h.node_id != 1]
            for age, address in enumerate(others[: pss.config.view_size]):
                pss.view.add(NodeDescriptor(address=address, age=age))
            oldest = pss.view.oldest().node_id
            pss.on_round()
            (partner,) = pss._pending
            partners.append((partner, oldest))
        return partners

    @pytest.mark.parametrize("protocol", protocol_names())
    def test_selection_policy_changes_the_partner(self, protocol):
        tail = self._first_partners(protocol, SelectionPolicy.TAIL)
        assert all(partner == oldest for partner, oldest in tail)
        random_picks = self._first_partners(protocol, SelectionPolicy.RANDOM)
        assert any(partner != oldest for partner, oldest in random_picks)


class TestInvariantsAcrossProtocols:
    @pytest.mark.parametrize("protocol", protocol_names())
    def test_views_and_merges_every_round(self, protocol, monkeypatch):
        merges = {"evicting": 0}
        original = PartialView.update_view

        def checked_update_view(view, sent, received, self_id):
            before = set(view.node_ids())
            eligible = [d.node_id for d in sent if d.node_id in before]
            original(view, sent, received, self_id)
            evicted = before - set(view.node_ids())
            if evicted:
                merges["evicting"] += 1
                assert evicted <= set(eligible)

        monkeypatch.setattr(PartialView, "update_view", checked_update_view)
        scenario = Scenario(
            ScenarioConfig(
                protocol=protocol,
                seed=5,
                latency=UniformLatency(10.0, 150.0, seed=5),
                nat_mixture=NAT_MIXTURES["paper"],
            )
        )
        scenario.set_loss_rate(0.05)
        scenario.populate(n_public=12, n_private=28)
        croupier = scenario.plugin.nat_strategy is NatStrategy.CROUPIER
        # Each node's class as recorded while it was live: views go on naming
        # nodes that churn has killed, and a killed node's handle is released.
        is_public = {h.node_id: h.is_public for h in scenario.live_handles()}
        for _ in range(30):
            scenario.run_rounds(1)
            scenario.churn_step(0.03)
            for handle in scenario.live_handles():
                is_public.setdefault(handle.node_id, handle.is_public)
            for handle in scenario.live_handles():
                ids = [a.node_id for a in handle.pss.neighbor_addresses()]
                assert handle.node_id not in ids
                assert len(ids) == len(set(ids))
                assert handle.pss.stats.extra.get("misdirected_requests", 0) == 0
                if croupier:
                    for view, public in ((handle.pss.public_view, True),
                                         (handle.pss.private_view, False)):
                        assert all(is_public[d.node_id] is public for d in view)
        assert merges["evicting"] > 0
        if croupier:
            assert scenario.monitor.drop_reasons.get("nat_filtered", 0) == 0
