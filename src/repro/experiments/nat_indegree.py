"""Symmetric-NAT underrepresentation: the per-NAT-class in-degree figure.

The paper argues that NAT types which are hard to traverse — symmetric NATs above all
— end up *underrepresented* in the overlay: other nodes hold fewer references to them,
so they receive fewer shuffles and less of the gossip stream. PR 4 added the raw
evidence (the ``in_degree_<class>`` histogram breakdown recorded by the graph probe
whenever a :class:`~repro.nat.mixture.NatMixture` is in play); this module promotes it
to a first-class experiment: the ``nat_indegree`` matrix kind runs a heterogeneous
gateway population (the paper's measured mixture unless the cell sweeps its own),
warms it up and reports each NAT class's mean in-degree *relative to public nodes* —
``indeg_rel_<class>`` scalars plus the headline ``symmetric_underrepresentation``
(1 − symmetric/public; ≈0.5 means symmetric-NAT nodes hold about half the public
in-degree, the paper's claim). ``repro report`` renders the matching
"NAT-class in-degree" section for any aggregate carrying the breakdown.
"""

from __future__ import annotations

from repro.experiments.matrix import (
    DEFAULT_NAT_MIXTURE,
    CellContext,
    measure_cell,
    register_scenario,
)
from repro.metrics.payload import MetricPayload

#: The mixture a cell runs when its ``nat_mixture`` axis is ``"none"`` — the paper's
#: measured NAT-type distribution, which is the population the claim is about.
FALLBACK_MIXTURE = "paper"

#: Scalar prefix of the relative in-degree metrics this kind adds.
RELATIVE_PREFIX = "indeg_rel_"


def relative_indegree_scalars(payload: MetricPayload) -> None:
    """Add ``indeg_rel_<class>`` (mean in-degree over the public mean) and the
    ``symmetric_underrepresentation`` headline to a payload carrying the per-class
    ``indeg_mean_<class>`` breakdown. No-op without a public reference class."""
    public_mean = payload.scalars.get("indeg_mean_public")
    if not public_mean:
        return
    for name in sorted(payload.scalars):
        if not name.startswith("indeg_mean_") or name == "indeg_mean_public":
            continue
        label = name[len("indeg_mean_"):]
        payload.set_scalar(RELATIVE_PREFIX + label, payload.scalars[name] / public_mean)
    symmetric = payload.scalars.get("indeg_mean_symmetric")
    if symmetric is not None:
        payload.set_scalar("symmetric_underrepresentation", 1.0 - symmetric / public_mean)


def run_nat_indegree_cell(ctx: CellContext) -> MetricPayload:
    """One symmetric-NAT-underrepresentation cell: warm a mixed-NAT population up,
    then read the per-class in-degree breakdown.

    Cells on the default (``none``) mixture axis run the registered ``paper``
    mixture — the kind is *about* heterogeneous gateways, so a homogeneous cell
    would measure nothing; sweeping ``--nat-mixtures`` still works and keys the
    cells as usual.
    """
    cell = ctx.cell
    mixture = (
        cell.nat_mixture if cell.nat_mixture != DEFAULT_NAT_MIXTURE else FALLBACK_MIXTURE
    )
    scenario = ctx.populated_scenario(nat_mixture=mixture)
    installed = ctx.install_timeline(scenario)
    installed.advance_rounds(cell.rounds)
    payload = measure_cell(scenario)
    relative_indegree_scalars(payload)
    return payload


register_scenario(
    "nat_indegree",
    run_nat_indegree_cell,
    description="per-NAT-class in-degree breakdown over a mixed gateway population — "
    "the symmetric-NAT underrepresentation figure (paper mixture unless the "
    "nat_mixture axis is swept)",
)
