"""Experiments: the paper's evaluation (Section VII) as matrix kinds and figures.

Every figure is a list of :class:`~repro.experiments.matrix.CellSpec` values naming a
registered scenario kind, executed through :func:`~repro.experiments.matrix.run_cell`
and rendered as text tables — :mod:`~repro.experiments.figures` holds them, and
``repro run <name>`` runs them at a laptop scale (``--nodes`` / ``--rounds`` take them
to the paper's).

Mapping to the paper (``FIGURES`` is :data:`repro.experiments.figures.FIGURES`):

========================  ==========================================================
Figure                     Entry
========================  ==========================================================
Figure 1 (a)               ``FIGURES["history-static"]`` (``history`` kind)
Figure 2 (a)               ``FIGURES["history-dynamic"]`` (``history`` + ``ratio_growth_*``)
Figure 3 (a)               ``FIGURES["system-size"]`` (``join`` kind)
Figure 4 (a)               ``FIGURES["ratio-sweep"]`` (``ratio`` kind)
Figure 5 (a)               ``FIGURES["churn"]`` (``churn`` kind)
Figure 6 (a, b, c)         ``FIGURES["randomness"]`` (``randomness`` kind)
Figure 7 (a)               ``FIGURES["overhead"]`` (``overhead`` kind)
Figure 7 (b)               :func:`~repro.experiments.catastrophic_failure.run_failure_experiment`
NAT-class in-degree        ``FIGURES["nat-indegree"]`` (``nat_indegree`` kind)
Ablations A1–A4            :mod:`~repro.experiments.ablations`
========================  ==========================================================

Grids of such runs — protocol × scenario kind × system size × seed — are expressed
declaratively with :class:`~repro.experiments.matrix.MatrixSpec` and executed on a
sharded multiprocess pool by :func:`~repro.experiments.runner.run_matrix` (the
``repro matrix`` CLI). See ``docs/experiments.md``.
"""

from repro.experiments.base import run_estimation_cell
from repro.experiments.matrix import (
    NAT_MIXTURES,
    NAT_PROFILES,
    PAPER_LOSS_RATES,
    PAPER_NAT_PROFILES,
    PAPER_UPNP_FRACTIONS,
    CellContext,
    CellSpec,
    MatrixSpec,
    derive_cell_seed,
    measure_cell,
    register_scenario,
    scenario_names,
)
from repro.experiments.checkpoint import JournalWriter, load_journal, spec_digest
from repro.experiments.faults import FaultPlan, RetryPolicy, payload_digest
from repro.experiments.runner import (
    CellResult,
    MatrixRunResult,
    run_matrix,
    write_artifacts,
)
from repro.experiments.catastrophic_failure import FailureExperimentResult, run_failure_experiment
from repro.experiments.figures import FIGURES, FigureResult, run_figure
from repro.experiments.quick import QuickRunResult, quick_croupier_run
from repro.experiments import randomness  # noqa: F401  (registers the "randomness" kind)
from repro.experiments.scale import (
    ScaleRunResult,
    ScaleVariantResult,
    run_scale_cell,
    run_scale_experiment,
)

__all__ = [
    "NAT_MIXTURES",
    "NAT_PROFILES",
    "PAPER_LOSS_RATES",
    "PAPER_NAT_PROFILES",
    "PAPER_UPNP_FRACTIONS",
    "CellContext",
    "CellResult",
    "CellSpec",
    "FIGURES",
    "FailureExperimentResult",
    "FaultPlan",
    "FigureResult",
    "JournalWriter",
    "MatrixRunResult",
    "MatrixSpec",
    "QuickRunResult",
    "RetryPolicy",
    "ScaleRunResult",
    "ScaleVariantResult",
    "derive_cell_seed",
    "load_journal",
    "measure_cell",
    "payload_digest",
    "quick_croupier_run",
    "register_scenario",
    "run_estimation_cell",
    "run_failure_experiment",
    "run_figure",
    "run_matrix",
    "run_scale_cell",
    "run_scale_experiment",
    "scenario_names",
    "spec_digest",
    "write_artifacts",
]
