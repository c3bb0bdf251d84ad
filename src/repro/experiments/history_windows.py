"""Figures 1 and 2: estimation accuracy vs. history-window sizes (α, γ).

* **Figure 1** (static ratio): 1000 public and 4000 private nodes join over ~50 s
  following Poisson processes; the public/private ratio then stays constant. Larger
  windows converge more slowly but to lower steady-state error.
* **Figure 2** (dynamic ratio): same join phase, then — after a short pause — a new
  public node is added every 42 ms, raising the ratio from 0.2 to about 0.33 over a few
  rounds. Small windows track the change fastest; large windows lag but win once the
  ratio stabilises again.

The paper sweeps three window pairs: (α=10, γ=25), (α=25, γ=50) and (α=100, γ=250).
"""

from __future__ import annotations

from repro.errors import ExperimentError
from repro.experiments.base import run_estimation_cell
from repro.experiments.matrix import CellContext, register_scenario
from repro.membership.plugin import get_plugin


def run_history_cell(ctx: CellContext):
    """One Figure 1/2 matrix cell: the (α, γ) history-window sweep.

    A thin gate over :func:`~repro.experiments.base.run_estimation_cell`: the sweep
    only makes sense under Croupier's strategy, the one that estimates ω, so a cell
    that pairs this kind with e.g. Cyclon fails loudly (a failed cell naming the
    protocol and its strategy) instead of silently measuring nothing. The Figure 2
    dynamic-ratio variant rides on the ``ratio_growth_*`` params.
    """
    plugin = get_plugin(ctx.cell.protocol)
    if not plugin.estimates_ratio:
        raise ExperimentError(
            "the 'history' scenario kind sweeps Croupier's (α, γ) windows; protocol "
            f"{plugin.name!r} (nat_strategy {plugin.nat_strategy.value!r}) estimates "
            "no ratio"
        )
    return run_estimation_cell(ctx)


register_scenario(
    "history",
    run_history_cell,
    description="Croupier's (α, γ) history-window sweep with a Poisson join transient "
    "(Figure 1; add ratio_growth_* params for Figure 2's dynamic ratio)",
    default_params={"alpha": 25, "gamma": 50, "join_window_ms": 5000.0},
)
