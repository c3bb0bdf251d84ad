"""``repro.lint`` — AST-based determinism & invariant linter for this repo.

Every guarantee the reproduction makes — byte-identical aggregates across worker
counts (PR 2), chaos/resume recovery to identical bytes (PR 6), object-vs-columnar
parity (PR 7) — rests on source-level discipline: randomness flows through
``derive_seed``-derived streams, canonical JSON is sorted, wall-clock never leaks
into digested payloads, hot-path tiers stay ``__slots__``-lean. The runtime
``cmp`` gates catch violations *after* an expensive run; this package catches
them at the cheapest point — the source — as ``repro lint`` (wired into CI
ahead of tier-1).

Layout mirrors the protocol plugin stack: a rule registry
(:mod:`repro.lint.registry`, the :mod:`repro.membership.plugin` idiom), per-file
AST contexts (:mod:`repro.lint.context`), rule modules under
:mod:`repro.lint.rules`, the committed-allowlist escape hatch
(:mod:`repro.lint.allowlist`) and the engine (:mod:`repro.lint.engine`).
Rules and policy tiers are documented in ``docs/determinism_lint.md``.
"""

from repro.lint.allowlist import ALLOWLIST_FILENAME, Allowlist
from repro.lint.context import FileContext, LintError
from repro.lint.engine import collect_files, run_lint
from repro.lint.findings import LINT_SCHEMA, Finding, LintReport
from repro.lint.registry import (
    LintRule,
    all_rules,
    get_rule,
    load_builtin_rules,
    register_rule,
    rule_ids,
)

__all__ = [
    "ALLOWLIST_FILENAME",
    "Allowlist",
    "FileContext",
    "Finding",
    "LINT_SCHEMA",
    "LintError",
    "LintReport",
    "LintRule",
    "all_rules",
    "collect_files",
    "get_rule",
    "load_builtin_rules",
    "register_rule",
    "rule_ids",
    "run_lint",
]
