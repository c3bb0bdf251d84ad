"""The five benchmark workloads: fixed inputs, output checks and per-run facts.

A workload is a constant of the benchmark — names, node counts, rounds and
timelines never change, because every later performance claim on this repository
is a comparison against numbers taken on these inputs. ``--seed`` reaches the
generators only (scenario seed / matrix ``root_seed``).

One *unit* is one complete execution of a workload: set-up (timed as
``setup_s``), the timed region (the round loop; for the matrix ``run_matrix``
through ``write_artifacts``), then the output checks and the ``sim_digest``. The
unit functions take a :class:`~spans.Tracer`; with no wrappers installed it
records only the root and the handful of phase spans and costs nothing. A process
runs one unit and exits, so that no unit starts on another's heap.
"""

from __future__ import annotations

import gc
import hashlib
import shutil
import tempfile
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.experiments import matrix, runner
from repro.experiments.matrix import MatrixSpec
from repro.metrics import partition
from repro.metrics.probes import collect_ratio_estimates
from repro.nat.mixture import NAT_MIXTURES
from repro.workload.events import ChurnPhase, LossBurst, Partition
from repro.workload.scenario import ScenarioConfig, create_scenario
from repro.workload.timeline import Timeline

from spans import Tracer

#: The paper's ω; every workload populates at this public ratio.
PUBLIC_RATIO = 0.2

#: Pool size of the matrix workload: nproc of the reference box.
MATRIX_WORKERS = 2


def dynamics(scale: float) -> Timeline:
    """The benchmark-owned churn + loss-burst + partition timeline: churn from round
    10 to the end of the cell, a loss burst over rounds 20-30 and a partition over
    rounds 30-40, all compressed by ``scale`` for shorter cells."""
    return Timeline((
        ChurnPhase(fraction_per_round=0.01, start_round=10.0),
        LossBurst(start_round=20.0, stop_round=30.0, loss_rate=0.05),
        Partition(start_round=30.0, stop_round=40.0, fraction=0.3),
    )).scaled(scale)


@dataclass(frozen=True)
class Cell:
    """One simulated deployment: engine, protocol, population, horizon, dynamics."""

    engine: str
    protocol: str
    n_public: int
    n_private: int
    rounds: int
    latency: str
    nat_mixture: Optional[str] = None
    #: ``None`` runs a static population; a number installs :func:`dynamics`
    #: compressed by that factor and drives it through ``advance_rounds``.
    dynamics_scale: Optional[float] = None

    @property
    def nodes(self) -> int:
        return self.n_public + self.n_private


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Scenario cells run back to back; empty for the matrix workload.
    cells: Tuple[Cell, ...] = ()
    #: ``MatrixSpec`` fields (without ``root_seed``) of the matrix workload.
    matrix: Optional[Tuple[Tuple[str, object], ...]] = None

    def matrix_spec(self, seed: int) -> MatrixSpec:
        return MatrixSpec(root_seed=seed, **dict(self.matrix))

    @property
    def operations(self) -> int:
        """Operations one unit attempts: gossip rounds, or cells of the matrix."""
        if self.matrix is not None:
            return len(self.matrix_spec(0).validate())
        return sum(cell.rounds for cell in self.cells)


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "obj-croupier-static",
        "The paper's protocol on the reference engine: Croupier costs 2-3x the other "
        "protocols per event; core.croupier, core.estimator and membership.view do "
        "most of the work, the columnar package none.",
        cells=(Cell("object", "croupier", 100, 400, 120, "king"),),
    ),
    Workload(
        "obj-nylon-churn",
        "Same simulator/nat layers used differently: ~10x the packets per node-round, "
        "real NAT/loss/partition/dead-host drops, joins and kills, no estimator: a "
        "protocol-side gain predicts no change.",
        cells=(
            Cell("object", "nylon", 60, 240, 80, "constant",
                 nat_mixture="paper", dynamics_scale=1.0),
        ),
    ),
    Workload(
        "col-croupier-static",
        "The columnar headline between the 10^4 and 10^5 points: columnar.shuffle "
        "numpy phases plus the estimator advance do the work; one simulator event "
        "per round, so object-engine layers do nothing.",
        cells=(Cell("columnar", "croupier", 10_000, 40_000, 20, "constant"),),
    ),
    Workload(
        "col-natrelay-churn",
        "Gozar then Nylon, columnar, under churn, loss and partition: parent, "
        "keep-alive and relay paths, every drop reason, ~400 add_node/kill a round, "
        "rows never recycled: writes beside reads, RSS growth.",
        cells=(
            Cell("columnar", "gozar", 8_000, 32_000, 20, "constant", dynamics_scale=0.4),
            Cell("columnar", "nylon", 8_000, 32_000, 20, "constant", dynamics_scale=0.4),
        ),
    ),
    Workload(
        "matrix-cells",
        "16 small cells through run_matrix with 2 workers (= nproc), journal, "
        "aggregate and artifacts: runner, probes and report are a visible share. "
        "Object-engine gains move it; columnar gains must not.",
        matrix=(
            ("scenarios", ("static", "churn")),
            ("protocols", ("croupier", "cyclon", "gozar", "nylon")),
            ("sizes", (100,)),
            ("seeds", 2),
            ("rounds", 20),
            ("latency", "constant"),
            ("public_ratio", PUBLIC_RATIO),
        ),
    ),
)

WORKLOADS_BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}


@dataclass
class Unit:
    """Everything one execution of a workload produced."""

    setup_s: float = 0.0
    run_s: float = 0.0
    #: Σ nodes × rounds over the unit's cells.
    node_rounds: int = 0
    #: Operations attempted: gossip rounds (cells for the matrix workload).
    operations: int = 0
    sim_digest: str = ""
    #: Mean |ω̂ − ω| over measured nodes; ``None`` where nothing estimates ω.
    est_abs_err: Optional[float] = None
    biggest_cluster_frac: float = 0.0
    #: Counters of the program itself — deterministic, compared exactly.
    counts: Dict[str, int] = field(default_factory=dict)
    #: Facts only the traced pass reports (computed bytes, wall-clock splits).
    facts: Dict[str, float] = field(default_factory=dict)
    #: Failed output checks; a unit with any fails all its operations.
    problems: List[str] = field(default_factory=list)


def _bump(counts: Dict[str, int], key: str, value: int) -> None:
    counts[key] = counts.get(key, 0) + int(value)


def _mean(values: List[float]) -> float:
    return sum(values) / len(values)


# ---------------------------------------------------------------------- scenario cells


def build_cell(cell: Cell, seed: int):
    """Construct + populate + timeline install — the part ``setup_s`` times.
    Returns ``(scenario, installed_timeline_or_None)``."""
    scenario = create_scenario(
        ScenarioConfig(
            protocol=cell.protocol,
            seed=seed,
            latency=cell.latency,
            engine=cell.engine,
            nat_mixture=NAT_MIXTURES[cell.nat_mixture] if cell.nat_mixture else None,
        )
    )
    scenario.populate(n_public=cell.n_public, n_private=cell.n_private)
    installed = None
    if cell.dynamics_scale is not None:
        installed = dynamics(cell.dynamics_scale).install(
            scenario, horizon_rounds=cell.rounds
        )
    return scenario, installed


def _check_cell(cell: Cell, scenario, unit: Unit, cluster_fracs: List[float],
                errors: List[float]) -> str:
    """Output checks and counters of one finished cell; returns its digest."""
    label = f"{cell.engine}/{cell.protocol}"
    counts = unit.counts
    live = scenario.live_count()
    if live != cell.nodes:
        unit.problems.append(f"{label}: {live} live nodes, expected {cell.nodes}")
    _bump(counts, "live_nodes", live)
    _bump(counts, "simulator.core.events", scenario.sim.events_executed)

    omega = scenario.true_ratio()
    mean_estimate = None
    if cell.protocol == "croupier":
        if cell.engine == "columnar":
            measured, mean_estimate, abs_err, _ = scenario.engine.estimate_stats(omega)
        else:
            estimates = [e for e in collect_ratio_estimates(scenario) if e is not None]
            measured = len(estimates)
            mean_estimate = _mean(estimates) if estimates else None
            abs_err = _mean([abs(e - omega) for e in estimates]) if estimates else None
        if measured < 0.9 * live:
            unit.problems.append(f"{label}: only {measured}/{live} nodes measured")
        if mean_estimate is None or abs(mean_estimate - omega) >= 0.05:
            unit.problems.append(f"{label}: mean estimate {mean_estimate} vs {omega}")
        if abs_err is not None:
            errors.append(abs_err)

    cluster = partition.largest_cluster_fraction(scenario.overlay_graph())
    if cluster < 0.90:
        unit.problems.append(f"{label}: biggest cluster {cluster:.3f} < 0.90")
    cluster_fracs.append(cluster)

    drops = scenario.monitor.drop_reasons
    packets = scenario.network.packets_sent
    if cell.engine == "columnar":
        engine = scenario.engine
        _bump(counts, "columnar.shuffle.packets", packets)
        _bump(counts, "columnar.shuffle.drops", sum(drops.values()))
        _bump(counts, "columnar.engine.rounds", engine.round)
        _bump(counts, "columnar.engine.rows_final", engine.rows - 1)
        if engine.in_degree_histogram().total != live:
            unit.problems.append(f"{label}: in-degree histogram does not cover {live} nodes")
        column_bytes = sum(
            len(column) * column.itemsize
            for column in vars(engine).values()
            if isinstance(column, array)
        )
        # Computed from column itemsize × length, not measured.
        unit.facts["columnar.engine.bytes_per_row"] = max(
            unit.facts.get("columnar.engine.bytes_per_row", 0.0),
            column_bytes / (engine.rows - 1),
        )
        return engine.fingerprint()
    _bump(counts, "simulator.network.packets", packets)
    _bump(counts, "simulator.network.drops", sum(drops.values()))
    _bump(counts, "nat.filtered", drops.get("nat_filtered", 0))
    matrix.measure_cell(scenario)
    text = repr((scenario.sim.events_executed, packets, repr(mean_estimate),
                 sorted(drops.items())))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_scenario_unit(workload: Workload, seed: int, tracer: Tracer) -> Unit:
    unit = Unit()
    digests: List[str] = []
    cluster_fracs: List[float] = []
    errors: List[float] = []
    clock = time.perf_counter
    for cell in workload.cells:
        gc.collect()
        with tracer.span("harness.setup"):
            started = clock()
            scenario, installed = build_cell(cell, seed)
            unit.setup_s += clock() - started
        with tracer.span("harness.timed"):
            started = clock()
            if installed is not None:
                installed.advance_rounds(cell.rounds)
            else:
                scenario.run_rounds(cell.rounds)
            unit.run_s += clock() - started
        with tracer.span("harness.post"):
            digests.append(_check_cell(cell, scenario, unit, cluster_fracs, errors))
        unit.node_rounds += cell.nodes * cell.rounds
        unit.operations += cell.rounds
        del scenario, installed
    unit.sim_digest = hashlib.sha256("".join(digests).encode("ascii")).hexdigest()
    unit.biggest_cluster_frac = _mean(cluster_fracs)
    unit.est_abs_err = _mean(errors) if errors else None
    return unit


def time_setup(workload: Workload, seed: int) -> float:
    """One more set-up of the workload, built and thrown away: ``setup_s`` is a
    median over several, so that one slow allocation does not decide it."""
    clock = time.perf_counter
    if workload.matrix is not None:
        gc.collect()
        started = clock()
        workload.matrix_spec(seed).validate()
        return clock() - started
    total = 0.0
    for cell in workload.cells:
        gc.collect()
        started = clock()
        built = build_cell(cell, seed)
        total += clock() - started
        del built
    return total


# ---------------------------------------------------------------------- matrix cells


def run_matrix_unit(workload: Workload, seed: int, tracer: Tracer, journal: Path) -> Unit:
    unit = Unit()
    clock = time.perf_counter
    gc.collect()
    with tracer.span("harness.setup"):
        started = clock()
        spec = workload.matrix_spec(seed)
        cells = spec.validate()
        unit.setup_s = clock() - started
    with tracer.span("harness.timed"):
        started = clock()
        result = runner.run_matrix(spec, workers=MATRIX_WORKERS, journal_path=journal)
        blob = runner.aggregate_json_bytes(result)
        runner.write_artifacts(result, journal.parent / "artifacts")
        unit.run_s = clock() - started
    unit.facts["experiments.checkpoint.journal_bytes"] = journal.stat().st_size

    bad = len(result.failed) + len(result.degraded)
    if bad:
        unit.problems.append(f"{bad} failed or degraded cells")
    busy = sum(r.duration_s for r in result.results)
    unit.facts["experiments.runner.cell_busy_s"] = busy
    unit.facts["experiments.runner.overhead_frac"] = 1.0 - busy / (
        MATRIX_WORKERS * result.wall_seconds
    )
    unit.facts["experiments.runner.slowest_cell_s"] = max(
        r.duration_s for r in result.results
    )
    unit.counts["experiments.matrix.cells"] = len(cells)
    unit.counts["experiments.runner.retries"] = result.retries
    unit.node_rounds = sum(cell.size * cell.rounds for cell in cells)
    unit.operations = len(cells)
    unit.sim_digest = hashlib.sha256(blob).hexdigest()
    ok = [r for r in result.results if r.ok]
    clusters = [r.metrics["biggest_cluster_fraction"] for r in ok]
    errors = [
        r.metrics["est_err_avg_final"] for r in ok if "est_err_avg_final" in r.metrics
    ]
    unit.biggest_cluster_frac = _mean(clusters) if clusters else 0.0
    unit.est_abs_err = _mean(errors) if errors else None
    if unit.biggest_cluster_frac < 0.90:
        unit.problems.append(
            f"mean biggest cluster {unit.biggest_cluster_frac:.3f} < 0.90"
        )
    return unit


def check_matrix_reruns(workload: Workload, seed: int, unit: Unit, journal: Path) -> None:
    """The aggregate of a parallel run must come out byte for byte when rebuilt
    from its complete journal and from a ``workers=1`` run of the same spec."""
    spec = workload.matrix_spec(seed)
    started = time.perf_counter()
    resumed = runner.run_matrix(spec, workers=MATRIX_WORKERS, resume_from=journal)
    unit.facts["experiments.checkpoint.resume_s"] = time.perf_counter() - started
    sequential = runner.run_matrix(spec, workers=1)
    for label, rerun in (("rebuilt from the journal", resumed),
                         ("of a workers=1 run of the spec", sequential)):
        blob = runner.aggregate_json_bytes(rerun)
        if hashlib.sha256(blob).hexdigest() != unit.sim_digest:
            unit.problems.append(f"the aggregate {label} differs")


def run_unit(workload: Workload, seed: int, tracer: Tracer) -> Unit:
    """One unit of ``workload`` under the tracer's root span."""
    if workload.matrix is None:
        with tracer.root():
            return run_scenario_unit(workload, seed, tracer)
    # Beside this file: a run may write nowhere outside its checkout.
    work = Path(tempfile.mkdtemp(prefix="_work.", dir=Path(__file__).resolve().parent))
    try:
        with tracer.root():
            unit = run_matrix_unit(workload, seed, tracer, work / "matrix_journal.jsonl")
        # After the unit, so that the timed pool forks from a process that has run
        # no cell yet (as `repro matrix` does) and its workers inherit no warm
        # ScenarioReuse cache, and after the root span has closed, so that
        # installed wrappers record none of it.
        check_matrix_reruns(workload, seed, unit, work / "matrix_journal.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return unit
