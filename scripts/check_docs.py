#!/usr/bin/env python3
"""Documentation front-door checker, wired into CI before the columnar gates.

Six classes of rot this catches:

1. **Dead links** — every relative link (and ``#anchor`` fragment) in
   ``README.md`` and ``docs/*.md`` must resolve: the target file exists inside
   the repo, and the fragment matches a heading under GitHub's slugification
   (lowercase, punctuation stripped, spaces to hyphens, ``-N`` suffixes for
   duplicates). External ``http(s)://`` links are left alone — CI must not
   depend on the network.

2. **Phantom CLI flags** — any ``--flag`` appearing on a ``repro ...`` /
   ``python -m repro ...`` invocation inside a fenced code block is checked
   against the real argparse tree (``repro.cli.build_parser()``), per
   subcommand. Documented flags that the parser does not accept fail the
   build; the docs can never drift ahead of (or behind) the CLI again.

3. **Phantom ``repro run`` names and a stale figure table** — the positional of
   every ``repro run <name>`` in a fenced block must be a key of the CLI's run
   table (or ``list``), and the *figure → kind, params, cells* table in
   ``docs/experiments.md`` must agree, row by row, with what
   ``repro.experiments.figures`` builds at the CLI's default ``--nodes`` /
   ``--rounds``.

4. **A stale lint rules table** — in ``docs/determinism_lint.md`` every id in
   ``repro.lint.RULES`` has exactly one row in a rules table, and every row
   names one of them. (``parse-error`` and ``unused-allowlist`` are bullets,
   not rows, and are not checked.)

5. **A stale protocol strategy table** — in ``docs/protocol_api.md`` every
   registered protocol has exactly one row in the strategy table, every row
   names a registered protocol, and each row shows the ``nat_strategy`` value
   the protocol's class declares.

6. **A stale gate table** — the README's "Reproducibility gates" table lists
   exactly the gates of ``scripts/gates.py``, in the order they run, each with
   the guarantee that file states.

Exit status: 0 clean, 1 findings (one ``path:line: message`` per finding).
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Dict, List, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from gates import BY_NAME  # noqa: E402
from repro.cli import build_parser  # noqa: E402
from repro.experiments.figures import FIGURES  # noqa: E402

LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^(#{1,6})\s+(.*)$")
FENCE_RE = re.compile(r"^\s*(```|~~~)")
FLAG_RE = re.compile(r"(--[a-z][a-z0-9-]*)")
INVOCATION_RE = re.compile(r"(?:^|\s|\$ )(?:python -m )?repro\s+([a-z-]+)\b")
RUN_NAME_RE = re.compile(r"(?:^|\s|\$ )(?:python -m )?repro\s+run\s+([a-z][a-z0-9-]*)")
#: Header of the figure table in docs/experiments.md (its rows follow until a blank line).
FIGURE_TABLE_HEADER = "| `repro run` | figure | kind | params | cells |"
#: Header of each rules table in docs/determinism_lint.md (rows follow until a blank line).
RULE_TABLE_HEADER = "| rule | fires on | why |"
#: Header of the strategy table in docs/protocol_api.md (rows follow until a blank line).
STRATEGY_TABLE_HEADER = "| protocol | `nat_strategy` | how it reaches a private peer |"
#: Header of the gate table in README.md (rows follow until a blank line).
GATE_TABLE_HEADER = "| gate | guarantee |"


def doc_files() -> List[Path]:
    files = [REPO_ROOT / "README.md"]
    files.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return [path for path in files if path.is_file()]


def github_slugs(lines: List[str]) -> Set[str]:
    """Slugs GitHub generates for a file's headings (duplicate-suffix aware)."""
    seen: Dict[str, int] = {}
    slugs: Set[str] = set()
    in_fence = False
    for line in lines:
        if FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = HEADING_RE.match(line)
        if not match:
            continue
        text = match.group(2)
        # Strip inline markdown: links keep their text, code/emphasis markers drop.
        text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)
        text = re.sub(r"[`*_]", "", text)
        slug = re.sub(r"[^\w\s-]", "", text.strip().lower(), flags=re.UNICODE)
        slug = re.sub(r"\s", "-", slug)
        count = seen.get(slug, 0)
        seen[slug] = count + 1
        slugs.add(slug if count == 0 else f"{slug}-{count}")
    return slugs


def check_links(path: Path, lines: List[str], slug_cache: Dict[Path, Set[str]],
                problems: List[str]) -> None:
    in_fence = False
    for lineno, line in enumerate(lines, start=1):
        if FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for target in LINK_RE.findall(line):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            raw_path, _, fragment = target.partition("#")
            if raw_path:
                resolved = (path.parent / raw_path).resolve()
                if not resolved.exists():
                    problems.append(
                        f"{path.relative_to(REPO_ROOT)}:{lineno}: dead link "
                        f"target {target!r}"
                    )
                    continue
                if resolved.is_dir() or resolved.suffix.lower() != ".md":
                    if fragment:
                        problems.append(
                            f"{path.relative_to(REPO_ROOT)}:{lineno}: anchor on "
                            f"non-markdown target {target!r}"
                        )
                    continue
            else:
                resolved = path.resolve()
            if fragment:
                if resolved not in slug_cache:
                    slug_cache[resolved] = github_slugs(
                        resolved.read_text(encoding="utf-8").splitlines()
                    )
                if fragment.lower() not in slug_cache[resolved]:
                    problems.append(
                        f"{path.relative_to(REPO_ROOT)}:{lineno}: dead anchor "
                        f"{target!r} (no matching heading)"
                    )


def cli_flag_map() -> Dict[str, Set[str]]:
    """Subcommand -> set of accepted long flags, introspected from argparse."""
    parser = build_parser()
    flags: Dict[str, Set[str]] = {"": {
        opt for action in parser._actions for opt in action.option_strings
        if opt.startswith("--")
    }}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                flags[name] = {
                    opt
                    for sub_action in sub._actions
                    for opt in sub_action.option_strings
                    if opt.startswith("--")
                }
    return flags


def check_cli_flags(path: Path, lines: List[str], flags: Dict[str, Set[str]],
                    run_names: Set[str], problems: List[str]) -> None:
    in_fence = False
    command = ""
    for lineno, line in enumerate(lines, start=1):
        if FENCE_RE.match(line):
            in_fence = not in_fence
            command = ""
            continue
        if not in_fence:
            continue
        invocation = INVOCATION_RE.search(line)
        if invocation:
            command = invocation.group(1)
            run_name = RUN_NAME_RE.search(line)
            if run_name and run_name.group(1) not in run_names:
                problems.append(
                    f"{path.relative_to(REPO_ROOT)}:{lineno}: `repro run "
                    f"{run_name.group(1)}` is not an experiment `repro run list` prints"
                )
        elif not line.rstrip().endswith("\\") and not line.startswith((" ", "\t")):
            # A fresh non-continuation, non-indented line ends the invocation.
            if not line.strip().startswith("--"):
                command = ""
        if not command or command not in flags:
            continue
        known = flags[command] | flags[""]
        for flag in FLAG_RE.findall(line):
            if flag not in known:
                problems.append(
                    f"{path.relative_to(REPO_ROOT)}:{lineno}: flag {flag!r} is "
                    f"not accepted by `repro {command}`".replace("repro ` ", "repro`")
                )


def figure_table_rows() -> Dict[str, Tuple[str, str, str]]:
    """``repro run`` name -> (kind, params, cell count) as figures.py builds them at
    the CLI defaults — what the docs table must say."""
    defaults = build_parser().parse_args(["run", "list"])
    rows = {}
    for name, figure in FIGURES.items():
        cells = figure.cells(defaults.nodes, defaults.rounds)
        (kind,) = {cell.scenario for cell in cells}
        params = sorted({key for cell in cells for key, _ in cell.params})
        rows[name] = (kind, ", ".join(params) or "—", str(len(cells)))
    return rows


def check_figure_table(path: Path, lines: List[str], problems: List[str]) -> None:
    expected = figure_table_rows()
    where = path.relative_to(REPO_ROOT)
    if FIGURE_TABLE_HEADER not in lines:
        problems.append(f"{where}:1: figure table not found ({FIGURE_TABLE_HEADER!r})")
        return
    start = lines.index(FIGURE_TABLE_HEADER) + 2  # skip the |---| separator row
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line.startswith("|"):
            break
        name, _figure, *documented = [
            cell.strip().replace("`", "") for cell in line.strip("|").split("|")
        ]
        if expected.pop(name, None) != tuple(documented):
            problems.append(
                f"{where}:{lineno}: figure table row {name!r} does not match "
                f"repro.experiments.figures (kind, params, cells)"
            )
    for name in expected:
        problems.append(f"{where}:{start}: figure table has no row for {name!r}")


def check_rule_tables(path: Path, lines: List[str], problems: List[str]) -> None:
    from repro.lint import RULES

    registered = set(RULES)
    where = path.relative_to(REPO_ROOT)
    first_row: Dict[str, int] = {}
    for index, header in enumerate(lines):
        if header != RULE_TABLE_HEADER:
            continue
        for lineno, line in enumerate(lines[index + 2:], start=index + 3):
            if not line.startswith("|"):
                break
            rule = line.strip("|").split("|")[0].strip().strip("`")
            if rule not in registered:
                problems.append(
                    f"{where}:{lineno}: rules table row {rule!r} is not a "
                    f"lint rule in repro.lint.RULES"
                )
            elif rule in first_row:
                problems.append(
                    f"{where}:{lineno}: rule {rule!r} has a second rules table "
                    f"row (first at line {first_row[rule]})"
                )
            first_row.setdefault(rule, lineno)
    for rule in sorted(registered - set(first_row)):
        problems.append(f"{where}:1: rule {rule!r} has no rules table row")


def check_strategy_table(path: Path, lines: List[str], problems: List[str]) -> None:
    from repro.membership.plugin import all_plugins

    expected = {plugin.name: plugin.nat_strategy.value for plugin in all_plugins()}
    where = path.relative_to(REPO_ROOT)
    if STRATEGY_TABLE_HEADER not in lines:
        problems.append(
            f"{where}:1: strategy table not found ({STRATEGY_TABLE_HEADER!r})"
        )
        return
    start = lines.index(STRATEGY_TABLE_HEADER) + 2  # skip the |---| separator row
    first_row: Dict[str, int] = {}
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line.startswith("|"):
            break
        name, strategy = [
            cell.strip().strip("`") for cell in line.strip("|").split("|")[:2]
        ]
        if name in first_row:
            problems.append(
                f"{where}:{lineno}: protocol {name!r} has a second strategy table "
                f"row (first at line {first_row[name]})"
            )
        elif name not in expected:
            problems.append(
                f"{where}:{lineno}: strategy table row {name!r} is not a "
                f"registered protocol"
            )
        elif strategy != expected[name]:
            problems.append(
                f"{where}:{lineno}: protocol {name!r} declares nat_strategy "
                f"{expected[name]!r}, the table says {strategy!r}"
            )
        first_row.setdefault(name, lineno)
    for name in sorted(set(expected) - set(first_row)):
        problems.append(f"{where}:{start}: strategy table has no row for {name!r}")


def check_gate_table(path: Path, lines: List[str], problems: List[str]) -> None:
    where = path.relative_to(REPO_ROOT)
    if GATE_TABLE_HEADER not in lines:
        problems.append(f"{where}:1: gate table not found ({GATE_TABLE_HEADER!r})")
        return
    start = lines.index(GATE_TABLE_HEADER) + 2  # skip the |---| separator row
    documented = []
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line.startswith("|"):
            break
        name, guarantee = [cell.strip() for cell in line.strip().strip("|").split("|", 1)]
        documented.append(name.strip("`"))
        gate = BY_NAME.get(documented[-1])
        if gate is not None and guarantee != gate.guarantee:
            problems.append(
                f"{where}:{lineno}: gate {gate.name!r} states another guarantee "
                f"in scripts/gates.py"
            )
    if documented != list(BY_NAME):
        problems.append(
            f"{where}:{start}: gate table lists {documented}, scripts/gates.py "
            f"runs {list(BY_NAME)}"
        )


def main() -> int:
    problems: List[str] = []
    slug_cache: Dict[Path, Set[str]] = {}
    flags = cli_flag_map()
    run_names = set(FIGURES) | {"list"}
    files = doc_files()
    for path in files:
        lines = path.read_text(encoding="utf-8").splitlines()
        check_links(path, lines, slug_cache, problems)
        check_cli_flags(path, lines, flags, run_names, problems)
        if path.name == "README.md":
            check_gate_table(path, lines, problems)
        elif path.name == "experiments.md":
            check_figure_table(path, lines, problems)
        elif path.name == "determinism_lint.md":
            check_rule_tables(path, lines, problems)
        elif path.name == "protocol_api.md":
            check_strategy_table(path, lines, problems)
    if problems:
        for problem in problems:
            print(problem)
        print(f"check_docs: {len(problems)} problem(s) in {len(files)} file(s)")
        return 1
    print(f"check_docs: OK ({len(files)} markdown file(s) checked)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
