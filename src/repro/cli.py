"""The ``repro`` command-line interface: one entry point for every way of running this
reproduction.

Subcommands
-----------
``repro run <experiment>``
    Run one of the paper's figures (scaled-down by default) and print its text report.
``repro matrix``
    Expand a declarative experiment matrix (scenario kinds × protocols × sizes × seeds)
    and execute it on a sharded multiprocess pool, writing JSON/CSV/markdown artifacts.
``repro report <aggregate.json>``
    Re-render the markdown summary of a previously written matrix aggregate.
``repro lint``
    Run the AST-based determinism & invariant linter (``repro.lint``) over the
    source tree — the cheapest of the CI gates, run ahead of tier-1.

Examples, benchmarks and CI all drive these same code paths: the CI gates
(``scripts/gates.py``) run mini-matrices through ``repro matrix`` and compare the
aggregate bytes across worker counts and with committed goldens.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import ExperimentError, ReproError
from repro.version import __version__


def _build_runners() -> Dict[str, Callable]:
    """Experiments runnable via ``repro run``: CLI args -> a result with ``to_text()``.
    Every figure runs its cells through :func:`repro.experiments.figures.run_figure`;
    ``scale`` alone keeps a harness (no kind reports wall-clock). Built on demand so
    the CLI starts without importing the stack."""
    from repro import experiments as exp

    runners: Dict[str, Callable] = {
        name: lambda a, name=name: exp.run_figure(
            name, nodes=a.nodes, rounds=a.rounds, seed=a.seed, latency=a.latency
        )
        for name in exp.FIGURES
    }
    runners["scale"] = lambda a: exp.run_scale_experiment(
        nodes=a.nodes,
        rounds=a.rounds,
        seed=a.seed,
        latency=a.latency,
    )
    return runners


def _csv_list(text: str) -> List[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _csv_ints(text: str) -> List[int]:
    return [int(item) for item in _csv_list(text)]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Croupier reproduction: experiments, matrices, reports, lint.",
        allow_abbrev=False,  # `matrix --seed 7` must not mean `--seeds 7`
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser(
        "run", help="run one of the paper's figures at a chosen scale", allow_abbrev=False
    )
    run.add_argument("experiment", help="figure name (see `repro run list`)")
    run.add_argument("--nodes", type=int, default=100, help="total system size")
    run.add_argument("--rounds", type=int, default=60, help="gossip rounds to simulate")
    run.add_argument("--seed", type=int, default=42)
    run.add_argument("--latency", default="king", help="king, constant or uniform")

    matrix = subparsers.add_parser(
        "matrix", help="run a declarative experiment matrix on a worker pool",
        allow_abbrev=False,
    )
    matrix.add_argument(
        "--scenarios",
        type=_csv_list,
        default=["static"],
        help="comma-separated scenario kinds (`--list` shows them)",
    )
    matrix.add_argument("--protocols", type=_csv_list, default=["croupier"])
    matrix.add_argument("--sizes", type=_csv_ints, default=[100])
    matrix.add_argument("--seeds", type=int, default=1, help="seed indices per cell group")
    matrix.add_argument("--rounds", type=int, default=30)
    matrix.add_argument("--public-ratio", type=float, default=0.2)
    matrix.add_argument("--root-seed", type=int, default=42)
    matrix.add_argument("--latency", default="king")
    matrix.add_argument(
        "--nat-profiles",
        type=_csv_list,
        default=["restricted_cone"],
        help="NAT-profile axis: comma-separated profile names, or 'paper' for the "
        "paper-setup sweep (full_cone,restricted_cone,port_restricted_cone,symmetric)",
    )
    matrix.add_argument(
        "--loss-rates",
        type=_csv_list,
        default=["0"],
        help="packet-loss axis: comma-separated probabilities, or 'paper' for the "
        "paper-setup sweep (0,0.01,0.05)",
    )
    matrix.add_argument(
        "--nat-mixtures",
        type=_csv_list,
        default=["none"],
        help="NAT-mixture axis: comma-separated registered mixture names ('paper' is "
        "the paper's measured NAT-type distribution) or 'none' for homogeneous "
        "gateways (the --nat-profiles axis)",
    )
    matrix.add_argument(
        "--upnp-fractions",
        type=_csv_list,
        default=["0"],
        help="UPnP axis: comma-separated fractions of gateways whose NAT supports "
        "UPnP port mapping, or 'paper' for the paper-setup sweep (0,0.2,0.5)",
    )
    matrix.add_argument(
        "--timelines",
        type=_csv_list,
        default=["none"],
        help="workload-timeline axis: comma-separated registered timeline names "
        "(paper-churn, paper-failure, flash-crowd, diurnal, partition-heal, ... — "
        "`--list` shows them) or paths to timeline JSON files; 'none' adds no "
        "extra dynamics",
    )
    matrix.add_argument(
        "--engines",
        type=_csv_list,
        default=["object"],
        help="execution-backend axis: comma-separated engine names ('object' — "
        "per-node component simulation; 'columnar' — flat-array batched engine "
        "for 1e5+ node cells, croupier/cyclon/gozar/nylon)",
    )
    matrix.add_argument(
        "--variants",
        choices=("default", "paper", "first"),
        default="default",
        help="which registered parameter variants to expand per scenario kind",
    )
    matrix.add_argument("--workers", type=int, default=1)
    matrix.add_argument("--out", type=Path, default=Path("artifacts/matrix"))
    matrix.add_argument(
        "--journal",
        type=Path,
        default=None,
        help="cell-result journal path (default: <out>/matrix_journal.jsonl); "
        "terminal cells are appended as they complete so a killed run can --resume",
    )
    matrix.add_argument(
        "--resume",
        type=Path,
        default=None,
        metavar="JOURNAL",
        help="resume from a journal written by a previous (killed) run of the same "
        "spec: journalled ok/failed cells replay, only the rest execute; the "
        "rebuilt aggregate is byte-identical to an uninterrupted run",
    )
    matrix.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help="deterministic fault injection: 'seed=7,crash=0.2,hang=0.1,corrupt=0.2' "
        "or a repro-faultplan-v1 JSON file; same spec → same injection schedule",
    )
    matrix.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-cell watchdog budget overriding the scenario kinds' defaults "
        "(0 disables timeouts; needs --workers > 1 — the in-process executor "
        "cannot interrupt itself)",
    )
    matrix.add_argument(
        "--retries",
        type=int,
        default=3,
        metavar="N",
        help="total attempts per cell for transient worker faults (crash, timeout, "
        "corruption) before the cell degrades; deterministic cell exceptions are "
        "never retried (default 3)",
    )
    matrix.add_argument(
        "--heartbeat",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="progress-heartbeat interval on stderr (cells done/failed/retried, "
        "ETA); 0 disables (default 30)",
    )
    matrix.add_argument(
        "--list", action="store_true", help="list registered scenario kinds and exit"
    )
    matrix.add_argument(
        "--dry-run",
        action="store_true",
        help="print the expanded cell list (key, derived seed, timeline digest) as "
        "tab-separated rows without running anything — the cell-key stability gate",
    )

    report = subparsers.add_parser(
        "report",
        help="render the markdown summary of a matrix aggregate JSON, or diff two "
        "aggregates and gate on regressions",
        allow_abbrev=False,
    )
    report.add_argument("aggregate", type=Path, nargs="?", default=None)
    report.add_argument("--out", type=Path, default=None, help="write instead of print")
    report.add_argument(
        "--diff",
        type=Path,
        nargs=2,
        metavar=("OLD", "NEW"),
        default=None,
        help="compare two aggregates; exits 1 if NEW regresses beyond --tolerance",
    )
    report.add_argument(
        "--tolerance",
        type=float,
        default=0.05,
        help="relative change of a group's metric mean tolerated by --diff (default 5%%)",
    )
    report.add_argument(
        "--ks-tolerance",
        type=float,
        default=0.1,
        help="Kolmogorov–Smirnov distance tolerated by --diff on per-group "
        "histograms, e.g. the in-degree distributions (default 0.1)",
    )
    report.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when the rendered aggregate contains degraded or failed cells "
        "(degraded = transient-fault retries exhausted)",
    )

    lint = subparsers.add_parser(
        "lint",
        help="run the determinism & invariant linter (AST-based, seconds)",
        allow_abbrev=False,
    )
    lint.add_argument(
        "paths",
        type=Path,
        nargs="*",
        help="files or directories to lint (default: the repro package sources)",
    )
    lint.add_argument(
        "--strict",
        action="store_true",
        help="also fail on allowlist entries that matched no finding (the CI mode)",
    )

    return parser


# ------------------------------------------------------------------ subcommands


def _resolve_timeline_value(value: str) -> str:
    """Turn one ``--timelines`` value into a registered timeline name.

    Registered names (and the default ``none``) pass through; a value ending in
    ``.json`` is parsed as a timeline document and registered under ``file:<stem>``
    so the matrix machinery — including forked pool workers — can resolve it. (Under
    a spawn start method file-based timelines need ``--workers 1``, like any
    run-time registration.)
    """
    if not value.endswith(".json"):
        return value
    from repro.workload.timeline import TIMELINES, Timeline, register_timeline

    path = Path(value)
    if not path.exists():
        raise ReproError(f"timeline file not found: {path}")
    timeline = Timeline.from_json(path.read_text())
    name = f"file:{path.stem}"
    existing = TIMELINES.get(name)
    if existing is not None and existing.timeline != timeline:
        raise ReproError(
            f"timeline name {name!r} (from {path}) collides with a different "
            f"timeline already registered under that name — file-based timelines "
            f"are keyed by stem, so rename one of the files"
        )
    register_timeline(name, timeline, description=f"loaded from {path}", replace=True)
    return name


def _dry_run_matrix(spec) -> int:
    """``repro matrix --dry-run``: the expanded cell list, nothing executed.

    One tab-separated row per cell — cell key, derived seed, timeline digest (``-``
    for the default timeline) — in expansion order. The output is a pure function of
    the spec, which is what makes it a reviewable cell-key stability artifact (CI
    diffs it against a committed copy).
    """
    from repro.experiments.matrix import DEFAULT_TIMELINE, cell_seed, timeline_digest

    cells = spec.validate()
    print(f"dry run: {spec.describe()}", file=sys.stderr)
    for cell in cells:
        digest = (
            "-" if cell.timeline == DEFAULT_TIMELINE else timeline_digest(cell.timeline)
        )
        print(f"{cell.key}\t{cell_seed(spec.root_seed, cell)}\t{digest}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    runners = _build_runners()
    if args.experiment == "list":
        print("available experiments:")
        for name in sorted(runners):
            print(f"  {name}")
        return 0
    runner = runners.get(args.experiment)
    if runner is None:
        print(
            f"unknown experiment {args.experiment!r}; try: {', '.join(sorted(runners))}",
            file=sys.stderr,
        )
        return 2
    result = runner(args)
    print(result.to_text())
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    from repro.experiments.matrix import (
        PAPER_LOSS_RATES,
        PAPER_NAT_PROFILES,
        PAPER_UPNP_FRACTIONS,
        MatrixSpec,
        SCENARIOS,
    )
    from repro.experiments.runner import run_matrix, write_artifacts
    from repro.membership.plugin import all_plugins

    if args.list:
        from repro.workload.timeline import all_timeline_presets

        print("registered scenario kinds:")
        for name in sorted(SCENARIOS):
            kind = SCENARIOS[name]
            variants = len(kind.paper_variants) or 1
            print(f"  {name:<10} ({variants} paper variant(s)) — {kind.description}")
        print("registered protocols:")
        for plugin in all_plugins():
            strategy = plugin.nat_strategy.value
            print(f"  {plugin.name:<10} [{strategy}] — {plugin.description}")
        print("registered timelines (--timelines):")
        for preset in all_timeline_presets():
            print(
                f"  {preset.name:<15} [{preset.timeline.digest}] — {preset.description}"
            )
        return 0

    nat_profiles = (
        list(PAPER_NAT_PROFILES) if args.nat_profiles == ["paper"] else args.nat_profiles
    )
    if args.loss_rates == ["paper"]:
        loss_rates: List[float] = list(PAPER_LOSS_RATES)
    else:
        try:
            loss_rates = [float(rate) for rate in args.loss_rates]
        except ValueError as error:
            # 'paper' only works as the sole value; anything unparsable fails cleanly.
            raise ReproError(
                f"--loss-rates must be comma-separated probabilities or exactly "
                f"'paper' (got {','.join(args.loss_rates)!r}): {error}"
            ) from None
    if args.upnp_fractions == ["paper"]:
        upnp_fractions: List[float] = list(PAPER_UPNP_FRACTIONS)
    else:
        try:
            upnp_fractions = [float(fraction) for fraction in args.upnp_fractions]
        except ValueError as error:
            raise ReproError(
                f"--upnp-fractions must be comma-separated fractions or exactly "
                f"'paper' (got {','.join(args.upnp_fractions)!r}): {error}"
            ) from None
    timelines = [_resolve_timeline_value(value) for value in args.timelines]
    spec = MatrixSpec(
        scenarios=args.scenarios,
        protocols=args.protocols,
        sizes=args.sizes,
        seeds=args.seeds,
        rounds=args.rounds,
        public_ratio=args.public_ratio,
        root_seed=args.root_seed,
        latency=args.latency,
        variants=args.variants,
        nat_profiles=nat_profiles,
        loss_rates=loss_rates,
        nat_mixtures=args.nat_mixtures,
        upnp_fractions=upnp_fractions,
        timelines=timelines,
        engines=args.engines,
    )

    if args.dry_run:
        return _dry_run_matrix(spec)

    from repro.experiments.faults import FaultPlan, RetryPolicy

    fault_plan = FaultPlan.parse(args.chaos) if args.chaos else None
    retry = RetryPolicy(max_attempts=max(1, args.retries))
    journal_path = args.journal
    if journal_path is None:
        journal_path = (
            args.resume if args.resume is not None
            else args.out / "matrix_journal.jsonl"
        )

    extras = [f"workers={args.workers}"]
    if fault_plan is not None:
        extras.append(fault_plan.describe())
    if args.resume is not None:
        extras.append(f"resume={args.resume}")
    print(f"matrix: {spec.describe()} ({', '.join(extras)})")

    def progress(result, done, total):
        status = {"ok": "ok", "failed": "FAILED", "degraded": "DEGRADED"}[result.status]
        retried = f" after {result.attempts} attempts" if result.attempts > 1 else ""
        print(
            f"  [{done}/{total}] {status}  {result.key}  "
            f"({result.duration_s:.1f}s{retried})"
        )

    run = run_matrix(
        spec,
        workers=args.workers,
        progress=progress,
        retry=retry,
        fault_plan=fault_plan,
        cell_timeout_s=args.cell_timeout,
        journal_path=journal_path,
        resume_from=args.resume,
        heartbeat_s=args.heartbeat if args.heartbeat and args.heartbeat > 0 else None,
    )
    paths = write_artifacts(run, args.out)
    print(
        f"wall time: {run.wall_seconds:.1f}s, failed cells: {len(run.failed)}, "
        f"degraded cells: {len(run.degraded)}, retries: {run.retries}"
        + (f", resumed: {run.resumed}" if run.resumed else "")
    )
    print(f"  journal: {journal_path}")
    for label, path in sorted(paths.items()):
        print(f"  {label}: {path}")
    if run.degraded:
        for result in run.degraded:
            print(f"DEGRADED {result.key}: {result.error}", file=sys.stderr)
        print(
            f"warning: {len(run.degraded)} cell(s) degraded — aggregate is "
            "incomplete (repro report --strict gates on this)",
            file=sys.stderr,
        )
    if run.failed:
        for result in run.failed:
            print(f"FAILED {result.key}:\n{result.error}", file=sys.stderr)
        return 1
    return 0


def _read_aggregate(path: Path) -> Dict:
    """The matrix aggregate at ``path``; anything else (a journal, a golden run, a
    stale schema) is a named error, never an empty summary or "no differences"."""
    from repro.experiments.runner import AGGREGATE_SCHEMA

    try:
        aggregate = json.loads(path.read_text())
    except (OSError, ValueError) as error:
        raise ExperimentError(f"{path} is not a matrix aggregate: {error}") from None
    schema = aggregate.get("schema") if isinstance(aggregate, dict) else None
    if schema != AGGREGATE_SCHEMA:
        raise ExperimentError(
            f"{path} is not a matrix aggregate: schema {schema!r}, "
            f"expected {AGGREGATE_SCHEMA!r}"
        )
    return aggregate


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import diff_aggregates, matrix_markdown_summary

    if args.diff is not None:
        if args.aggregate is not None:
            print(
                "error: give either an aggregate to render or --diff OLD NEW, not both",
                file=sys.stderr,
            )
            return 2
        old_path, new_path = args.diff
        diff = diff_aggregates(
            _read_aggregate(old_path),
            _read_aggregate(new_path),
            tolerance=args.tolerance,
            ks_tolerance=args.ks_tolerance,
        )
        text = diff.to_text()
        if args.out is not None:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.write_text(text + "\n")
            print(f"wrote {args.out}")
        else:
            print(text)
        if diff.has_regressions:
            print(
                f"REGRESSION: {new_path} is worse than {old_path} "
                f"(see verdicts above)",
                file=sys.stderr,
            )
            return 1
        return 0

    if args.aggregate is None:
        print("error: report needs an aggregate path or --diff OLD NEW", file=sys.stderr)
        return 2
    aggregate = _read_aggregate(args.aggregate)
    summary = matrix_markdown_summary(aggregate)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(summary)
        print(f"wrote {args.out}")
    else:
        print(summary)
    if args.strict:
        degraded = aggregate.get("degraded", {})
        failed = aggregate.get("failed", [])
        if degraded or failed:
            print(
                f"STRICT: aggregate has {len(failed)} failed and {len(degraded)} "
                "degraded cell(s)",
                file=sys.stderr,
            )
            return 1
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import run_lint

    # Default: the source checkout (what CI lints), else the installed package.
    src = Path("src/repro")
    paths = args.paths or [src if src.is_dir() else Path(__file__).resolve().parent]
    report = run_lint(paths, strict=args.strict)
    print(report.to_text())
    return report.exit_code


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    commands = {
        "run": _cmd_run,
        "matrix": _cmd_matrix,
        "report": _cmd_report,
        "lint": _cmd_lint,
    }
    try:
        return commands[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
