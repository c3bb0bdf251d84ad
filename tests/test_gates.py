"""The gate table in ``scripts/gates.py``: its goldens, names and shared grids, and the
columnar-vs-object equivalence check, fed hand-built aggregates. Runs no grid."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
sys.path.insert(0, str(SCRIPTS))

import gates  # noqa: E402


def test_every_golden_belongs_to_a_gate_and_exists():
    named = {gate.golden for gate in gates.GATES if gate.golden}
    committed = {path.name for path in gates.BASELINE.iterdir()}
    assert committed == named


def test_gate_names_are_unique():
    assert len(gates.BY_NAME) == len(gates.GATES)


def test_cell_key_dry_runs_are_the_grids_of_their_gates():
    matrix, timeline, figures = gates.BY_NAME["cellkeys"].dry_runs
    assert matrix is gates.BY_NAME["matrix"].grid
    assert timeline is gates.BY_NAME["timeline"].grid
    # Every figure but `quick`, whose one cell ablation-views already lists.
    from repro.experiments.figures import FIGURES

    assert figures[0] == "--figures"
    assert figures[1].split(",") == [name for name in FIGURES if name != "quick"]


def test_budgets_are_stated_in_the_guarantee():
    for gate in gates.GATES:
        if gate.seconds:
            assert f"{gate.seconds:g} s" in gate.guarantee, gate.name
        if gate.megabytes:
            assert f"{gate.megabytes:g} MB" in gate.guarantee, gate.name


def _group(est_mean, err=0.05):
    return {"est_mean": {"mean": est_mean}, "est_err_avg_final": {"mean": err}}


STEM = "scenario=static;protocol=croupier;size=60;rounds=40;public_ratio=0.2"
COLUMNAR = STEM + ";" + gates.ENGINE_PART


@pytest.mark.parametrize(
    "groups, problem",
    [
        ({STEM: _group(0.20), COLUMNAR: _group(0.21)}, None),
        ({STEM: _group(0.20), COLUMNAR: _group(0.26)}, "est_mean delta 0.0600 > 0.05"),
        ({COLUMNAR: _group(0.20)}, "no object-engine twin group"),
        ({STEM: _group(0.20), COLUMNAR: _group(0.20, err=0.16)}, "columnar est_err_avg_final"),
        ({STEM: _group(0.20)}, "no engine=columnar groups"),
    ],
    ids=["pass", "mean-delta", "no-twin", "error", "no-columnar"],
)
def test_columnar_equivalence(groups, problem):
    problems = gates.equivalence_problems({"groups": groups, "failed": []})
    if problem is None:
        assert problems == []
    else:
        assert len(problems) == 1 and problem in problems[0], problems
