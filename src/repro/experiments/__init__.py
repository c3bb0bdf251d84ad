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
Figure 7 (b)               ``FIGURES["failure"]`` (``failure`` kind)
NAT-class in-degree        ``FIGURES["nat-indegree"]`` (``nat_indegree`` kind)
Ablation A1                ``FIGURES["ablation-views"]`` (``pss`` kind)
Ablation A3                ``FIGURES["ablation-piggyback"]`` (``static`` kind)
Ablation A4                ``FIGURES["ablation-selection"]`` (``pss`` kind)
Quick run                  ``FIGURES["quick"]`` (``pss`` kind)
========================  ==========================================================

Grids of such runs — protocol × scenario kind × system size × seed — are expressed
declaratively with :class:`~repro.experiments.matrix.MatrixSpec` and executed on a
sharded multiprocess pool by :func:`~repro.experiments.runner.run_matrix` (the
``repro matrix`` CLI). See ``docs/experiments.md``.
"""

# Importing a kind's module registers the kind: ``figures`` imports ``base``,
# ``history_windows``, ``catastrophic_failure`` and ``nat_indegree``.
from repro.experiments import randomness  # noqa: F401  (registers the "randomness" kind)
from repro.experiments.figures import FIGURES, run_figure
from repro.experiments.matrix import CellSpec, MatrixSpec
from repro.experiments.runner import run_matrix, write_artifacts
from repro.experiments.scale import run_scale_experiment

__all__ = [
    "CellSpec",
    "FIGURES",
    "MatrixSpec",
    "run_figure",
    "run_matrix",
    "run_scale_experiment",
    "write_artifacts",
]
