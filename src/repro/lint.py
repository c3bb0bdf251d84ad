"""``repro lint``: the determinism linter, one AST walk per file.

Every gate in this repo byte-compares seeded runs, so the source must keep four
disciplines: randomness flows through ``derive_seed``-derived streams, JSON that
gets digested is sorted, wall-clock time never reaches compared bytes, and the
per-round object tiers stay ``__slots__``-lean. This module checks them before
anything runs (``repro lint src --strict``, ahead of tier-1 in CI). Each rule's
rationale is its row in ``docs/determinism_lint.md``.

Each file is parsed once, from its bytes so that a PEP 263 coding cookie is
honoured, and walked once. The walk builds the file's import-alias table and
keeps every node a rule inspects together with its enclosing ``def``/``class``
qualname (the *scope*); the rules, plain functions in :data:`RULES`, then run
over those nodes. :data:`TIERS` confines three rules to the modules where their
invariant holds. A finding that matches an :data:`ALLOWLIST` entry is absorbed
and counted; ``strict`` also reports every entry that absorbed nothing.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ReproError


class LintError(ReproError):
    """The linter cannot run: a lint target is missing or a file is unreadable."""


#: Modules whose JSON bytes and iteration order reach digested or committed
#: bytes: matrix aggregates (runner), journal records and spec digests
#: (checkpoint), payload integrity digests (faults), canonical timeline
#: documents (timeline/events), payload and aggregate construction
#: (payload/collector, matrix, report) and the streamed histogram path
#: (columnar/streaming).
CANONICAL_MODULES: Tuple[str, ...] = (
    "repro/experiments/runner.py",
    "repro/experiments/checkpoint.py",
    "repro/experiments/faults.py",
    "repro/experiments/matrix.py",
    "repro/experiments/report.py",
    "repro/metrics/payload.py",
    "repro/metrics/collector.py",
    "repro/workload/timeline.py",
    "repro/workload/events.py",
    "repro/columnar/streaming.py",
)

#: Object-engine modules whose classes are allocated per node per round.
SLOTS_MODULES: Tuple[str, ...] = (
    "repro/membership/descriptor.py",
    "repro/membership/view.py",
    "repro/simulator/message.py",
)

#: The rules that fire only in files whose path ends with one of a tier's
#: suffixes; every other rule fires everywhere.
TIERS: Dict[str, Tuple[str, ...]] = {
    "unsorted-iteration": CANONICAL_MODULES,
    "unsorted-json": CANONICAL_MODULES,
    "missing-slots": SLOTS_MODULES,
}

#: The justified exceptions, as (rule, path suffix, scope); scope is the
#: qualname a finding prints, or ``*`` for the whole file. An entry is a
#: reviewed claim that the flagged value never reaches digested or aggregate
#: bytes; ``--strict`` fails on an entry that matches nothing, so none go stale.
ALLOWLIST: Tuple[Tuple[str, str, str], ...] = (
    # Execution-layer diagnostics: durations, watchdog deadlines, retry backoff
    # and the stderr heartbeat live in the cell journal and console output,
    # never in aggregate bytes. The chaos/resume CI smokes byte-compare
    # aggregates across faulted runs, which would fail at once if one leaked.
    ("wall-clock", "repro/experiments/runner.py", "_run_attempt"),
    ("wall-clock", "repro/experiments/runner.py", "_run_cells_pool"),
    ("wall-clock", "repro/experiments/runner.py", "_Heartbeat.__init__"),
    ("wall-clock", "repro/experiments/runner.py", "_Heartbeat.tick"),
    ("wall-clock", "repro/experiments/runner.py", "run_matrix"),
)

#: Calls whose result differs between two runs of the same seed.
WALLCLOCK_CALLS = frozenset(
    """
    time.time time.time_ns time.perf_counter time.perf_counter_ns
    time.monotonic time.monotonic_ns time.process_time time.process_time_ns
    datetime.datetime.now datetime.datetime.utcnow datetime.datetime.today
    datetime.date.today uuid.uuid1 uuid.uuid4 os.urandom
    secrets.token_bytes secrets.token_hex secrets.token_urlsafe
    secrets.randbits secrets.randbelow secrets.choice
    """.split()
)

#: Functions of the ``random`` module, which all draw from its hidden
#: process-global Mersenne Twister.
GLOBAL_RNG_FUNCTIONS = frozenset(
    """
    random randint randrange randbytes getrandbits choice choices shuffle
    sample uniform triangular betavariate expovariate gammavariate gauss
    lognormvariate normalvariate vonmisesvariate paretovariate weibullvariate
    """.split()
)

_GLOBAL_RNG_CALLS = frozenset(f"random.{name}" for name in GLOBAL_RNG_FUNCTIONS)
_NUMPY_RANDOM = ("numpy.random", "np.random")
#: Calls, and method names (the receiver's type is unknown statically), whose
#: results come in hash or filesystem order.
_UNORDERED_CALLS = frozenset(
    {"set", "frozenset", "os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
)
_UNORDERED_METHODS = frozenset({"iterdir", "glob", "rglob"})
_SLOTS_EXEMPT_BASES = ("Enum", "Exception", "Error", "Warning")
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: ``resolve(expr)``: the dotted name of a Name/Attribute chain through the
#: file's import aliases (``pc`` after ``from time import perf_counter as pc``
#: is ``time.perf_counter``), or None.
Resolver = Callable[[ast.AST], Optional[str]]
#: ``check(node, target, resolve)`` yields (site, message) per finding; target
#: is the resolved callee of a Call, or the resolved name of an Attribute.
Check = Callable[[ast.AST, Optional[str], Resolver], Iterator[Tuple[ast.AST, str]]]


@dataclass(frozen=True)
class Finding:
    """One violation: where (1-based line, 0-based column), which rule, and the
    qualname of the innermost enclosing def/class (``<module>`` outside any),
    which is what an allowlist entry's scope matches."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    scope: str = "<module>"

    def to_text(self) -> str:
        where = f"{self.path}:{self.line}:{self.col}"
        return f"{where}: {self.rule} [{self.scope}]: {self.message}"


@dataclass
class LintReport:
    """The outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    allowlisted: int = 0

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def sorted_findings(self) -> List[Finding]:
        return sorted(self.findings, key=lambda f: (f.path, f.line, f.col, f.rule))

    def to_text(self) -> str:
        lines = [finding.to_text() for finding in self.sorted_findings()]
        lines.append(
            f"{len(self.findings)} finding(s) in {self.files_checked} file(s) "
            f"({self.allowlisted} allowlisted)"
        )
        return "\n".join(lines)


# ------------------------------------------------------------------- the rules


def _is_true(expr: Optional[ast.AST]) -> bool:
    return isinstance(expr, ast.Constant) and expr.value is True


def _is_numpy_random(name: str) -> bool:
    return any(name == p or name.startswith(p + ".") for p in _NUMPY_RANDOM)


def _base_name(expr: ast.AST) -> str:
    return expr.attr if isinstance(expr, ast.Attribute) else getattr(expr, "id", "")


def global_rng(node, target, resolve):
    if isinstance(node, ast.ImportFrom):
        # ``from random import choice`` makes the global stream look local.
        names = [item.name for item in node.names] if node.module == "random" else []
        for name in names:
            if name in GLOBAL_RNG_FUNCTIONS:
                yield node, (
                    f"'from random import {name}' imports a global-RNG "
                    f"function; inject a random.Random stream instead"
                )
    elif target in _GLOBAL_RNG_CALLS:
        yield node, (
            f"{target}() draws from the process-global RNG; draw from an "
            f"injected random.Random seeded via derive_seed instead"
        )


def unseeded_rng(node, target, resolve):
    if target == "random.Random" and not node.args:
        yield node, (
            "random.Random() with no seed draws its state from OS entropy; "
            "pass a derive_seed(...) value"
        )
    elif target == "random.SystemRandom":
        yield node, (
            "random.SystemRandom is unseedable entropy and can never reproduce; "
            "use random.Random(derive_seed(...))"
        )


def global_seed(node, target, resolve):
    if isinstance(node, ast.ImportFrom):
        names = [item.name for item in node.names] if node.level == 0 else []
        for name in names:
            if _is_numpy_random(f"{node.module}.{name}"):
                yield node, (
                    f"'from {node.module} import {name}' reaches numpy's RNG, "
                    f"which is outside this repo's derive_seed chain; draw from an "
                    f"injected random.Random"
                )
    elif isinstance(node, ast.Call):
        if target == "random.seed":
            yield node, (
                "random.seed() mutates the process-global generator shared by "
                "every caller; seed an injected random.Random instead"
            )
    elif target is not None and _is_numpy_random(target):
        yield node, (
            f"{target} uses numpy's hidden RNG state, which is outside this "
            f"repo's derive_seed chain; draw from an injected random.Random"
        )


def wall_clock(node, target, resolve):
    if target in WALLCLOCK_CALLS:
        yield node, (
            f"{target}() is wall-clock/entropy and differs between identically "
            f"seeded runs; use the simulator's virtual clock, or allowlist a "
            f"justified diagnostic site"
        )


def json_roundtrip_copy(node, target, resolve):
    if (
        target == "json.loads"
        and len(node.args) == 1
        and isinstance(node.args[0], ast.Call)
        and resolve(node.args[0].func) == "json.dumps"
    ):
        yield node, (
            "json.loads(json.dumps(x)) as a deep copy degrades values "
            "(int keys, NaN, tuples); use copy.deepcopy(x)"
        )


def unsorted_json(node, target, resolve):
    if target != "json.dumps":
        return
    sort_keys = next((kw.value for kw in node.keywords if kw.arg == "sort_keys"), None)
    if not _is_true(sort_keys):
        yield node, (
            "json.dumps in a canonical-output module needs sort_keys=True; "
            "insertion order is not a stable byte contract"
        )


def unsorted_iteration(node, target, resolve):
    iterable = node.iter
    func = iterable.func if isinstance(iterable, ast.Call) else None
    if isinstance(iterable, ast.Set):
        reason = "a set literal iterates in hash order"
    elif func is not None and resolve(func) in _UNORDERED_CALLS:
        reason = f"{resolve(func)}(...) has no stable iteration order"
    elif isinstance(func, ast.Attribute) and func.attr in _UNORDERED_METHODS:
        reason = f".{func.attr}(...) yields entries in filesystem order"
    else:
        return
    yield iterable, (
        f"{reason}; wrap it in sorted(...) — this module's output is compared "
        f"byte-for-byte"
    )


def missing_slots(node, target, resolve):
    assigned = (
        name
        for statement in node.body
        for name in (
            statement.targets if isinstance(statement, ast.Assign)
            else [statement.target] if isinstance(statement, ast.AnnAssign)
            else []
        )
    )
    if any(isinstance(name, ast.Name) and name.id == "__slots__" for name in assigned):
        return
    if any(
        isinstance(decorator, ast.Call)
        and _base_name(decorator.func) == "dataclass"
        and any(kw.arg == "slots" and _is_true(kw.value) for kw in decorator.keywords)
        for decorator in node.decorator_list
    ):
        return
    if any(_base_name(base).endswith(_SLOTS_EXEMPT_BASES) for base in node.bases):
        return  # Enum / exception classes are not per-round allocations
    yield node, (
        f"class {node.name!r} is in a hot-path module but declares no __slots__; "
        f"a per-instance __dict__ here costs memory every node-round"
    )


#: Every rule: id → (the node types it inspects, its check).
RULES: Dict[str, Tuple[Tuple[type, ...], Check]] = {
    "global-rng": ((ast.Call, ast.ImportFrom), global_rng),
    "global-seed": ((ast.Call, ast.Attribute, ast.ImportFrom), global_seed),
    "json-roundtrip-copy": ((ast.Call,), json_roundtrip_copy),
    "missing-slots": ((ast.ClassDef,), missing_slots),
    "unseeded-rng": ((ast.Call,), unseeded_rng),
    "unsorted-iteration": (
        (ast.For, ast.AsyncFor, ast.comprehension),
        unsorted_iteration,
    ),
    "unsorted-json": ((ast.Call,), unsorted_json),
    "wall-clock": ((ast.Call,), wall_clock),
}


# ------------------------------------------------------------------ the engine


def _path_matches(path: str, suffix: str) -> bool:
    """Does posix ``path`` end with ``suffix`` at a path-component boundary?"""
    return path == suffix or path.endswith("/" + suffix)


def _walk(tree: ast.AST) -> Iterator[Tuple[ast.AST, str]]:
    """``ast.walk``'s breadth-first order, each node paired with its scope. A
    def/class carries its own qualname; its decorators run in the scope around
    it."""
    todo = deque([(tree, "<module>")])
    while todo:
        node, scope = todo.popleft()
        if isinstance(node, _SCOPES):
            outer = scope
            scope = node.name if outer == "<module>" else f"{outer}.{node.name}"
            todo.extend(
                (child, outer if child in node.decorator_list else scope)
                for child in ast.iter_child_nodes(node)
            )
        else:
            todo.extend((child, scope) for child in ast.iter_child_nodes(node))
        yield node, scope


def _dotted(expr: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(expr, ast.Attribute):
        parts.append(expr.attr)
        expr = expr.value
    if not isinstance(expr, ast.Name):
        return None
    parts.append(expr.id)
    return ".".join(reversed(parts))


def _lint_file(file: Path, shown: str) -> List[Finding]:
    try:
        source = file.read_bytes()
    except OSError as error:
        raise LintError(f"cannot read {file}: {error}") from None
    try:
        tree = ast.parse(source, filename=shown)
    except SyntaxError as error:  # also undecodable bytes and bad coding cookies
        line, col = error.lineno or 1, max(error.offset or 1, 1) - 1
        message = f"file does not parse: {error.msg}"
        return [Finding(shown, line, col, "parse-error", message)]

    checks: Dict[type, List[Tuple[str, Check]]] = {}
    for rule, (kinds, check) in RULES.items():
        if rule not in TIERS or any(_path_matches(shown, s) for s in TIERS[rule]):
            for kind in kinds:
                checks.setdefault(kind, []).append((rule, check))

    aliases: Dict[str, str] = {}
    inner = set()  # attributes that are the ``.value`` of another attribute
    nodes = []
    for node, scope in _walk(tree):
        kind = type(node)
        if kind is ast.Import:
            for item in node.names:
                head = item.name.split(".")[0]
                aliases[item.asname or head] = item.name if item.asname else head
        elif kind is ast.ImportFrom and node.module and node.level == 0:
            for item in node.names:
                if item.name != "*":
                    aliases[item.asname or item.name] = f"{node.module}.{item.name}"
        elif kind is ast.Attribute:
            if isinstance(node.value, ast.Attribute):
                inner.add(node.value)
            if node in inner:
                continue  # a chain is one site: ``np.random.seed`` reports once
        if kind in checks:
            nodes.append((node, scope))

    def resolve(expr: ast.AST) -> Optional[str]:
        dotted = _dotted(expr)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        expansion = aliases.get(head)
        if expansion is None:
            return dotted
        return f"{expansion}.{rest}" if rest else expansion

    findings = []
    for node, scope in nodes:
        if isinstance(node, ast.Call):
            target = resolve(node.func)
        elif isinstance(node, ast.Attribute):
            target = resolve(node)
        else:
            target = None
        for rule, check in checks[type(node)]:
            for site, message in check(node, target, resolve):
                findings.append(
                    Finding(shown, site.lineno, site.col_offset, rule, message, scope)
                )
    return findings


def _collect_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files and directories into the ``.py`` files to lint, each
    directory's sorted, without duplicates."""
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(
                p for p in sorted(path.rglob("*.py")) if "__pycache__" not in p.parts
            )
        elif not path.exists():
            raise LintError(f"lint target does not exist: {path}")
        elif path.suffix == ".py":
            files.append(path)
    unique: Dict[Path, Path] = {}
    for file in files:
        unique.setdefault(file.resolve(), file)
    return list(unique.values())


def run_lint(
    paths: Sequence[Path],
    strict: bool = False,
    allowlist: Sequence[Tuple[str, str, str]] = ALLOWLIST,
    base_dir: Optional[Path] = None,
) -> LintReport:
    """Lint ``paths`` (files or directories). Findings print paths relative to
    ``base_dir`` (default: the working directory) when they lie under it.
    ``allowlist`` replaces :data:`ALLOWLIST`; ``strict`` adds one
    ``unused-allowlist`` finding per entry that absorbed nothing."""
    base = (base_dir if base_dir is not None else Path.cwd()).resolve()
    report = LintReport()
    used = set()  # indexes of the allowlist entries that absorbed a finding
    for file in _collect_files([Path(path) for path in paths]):
        report.files_checked += 1
        try:
            shown = file.resolve().relative_to(base).as_posix()
        except ValueError:
            shown = file.as_posix()
        for finding in _lint_file(file, shown):
            matched = [
                index
                for index, (rule, suffix, scope) in enumerate(allowlist)
                if rule == finding.rule
                and _path_matches(finding.path, suffix)
                and scope in ("*", finding.scope)
            ]
            used.update(matched)
            if matched:
                report.allowlisted += 1
            else:
                report.findings.append(finding)
    if strict:
        report.findings.extend(
            Finding(
                "<allowlist>",
                index + 1,
                0,
                "unused-allowlist",
                f"allowlist entry {' '.join(entry)!r} matched no finding; remove it",
            )
            for index, entry in enumerate(allowlist)
            if index not in used
        )
    return report
