"""The lint-rule registry: how determinism rules join the linter.

Mirrors :mod:`repro.membership.plugin`: every rule module registers one
:class:`LintRule` — its id, checker callable and documentation — at import time,
and the engine/CLI/docs work against the registry, so adding a rule is a
registration, not an engine edit:

>>> from repro.lint.registry import get_rule
>>> get_rule("global-rng").description
'randomness must flow through injected, seed-derived random.Random streams'

The built-in rule modules are imported lazily by :func:`load_builtin_rules`
(called by the engine and the CLI), keeping ``import repro.lint`` cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.lint.context import FileContext, LintError
from repro.lint.findings import Finding

#: Modules whose import registers the built-in rules (order fixes registry order).
_BUILTIN_MODULES = (
    "repro.lint.rules.rng",
    "repro.lint.rules.canonical",
    "repro.lint.rules.wallclock",
    "repro.lint.rules.slots",
)


@dataclass(frozen=True)
class LintRule:
    """One registered determinism rule.

    Attributes
    ----------
    id:
        Registry key, also the spelling in suppression comments
        (``# repro-lint: allow[<id>]``), allowlist entries and ``--rules``.
    check:
        ``check(context)`` → findings for one parsed file.
    description:
        One line for ``repro lint --list-rules`` and the docs.
    rationale:
        Which repo invariant the rule protects (PR reference); rendered in
        ``docs/determinism_lint.md``.
    """

    id: str
    check: Callable[[FileContext], List[Finding]]
    description: str
    rationale: str = ""


#: The global rule registry (filled by the rule modules at import time).
_REGISTRY: Dict[str, LintRule] = {}


def register_rule(
    id: str,
    check: Callable[[FileContext], List[Finding]],
    description: str,
    rationale: str = "",
) -> LintRule:
    """Register a rule; called once at the bottom of each rule module."""
    if id in _REGISTRY:
        raise LintError(f"lint rule {id!r} already registered")
    rule = LintRule(id=id, check=check, description=description, rationale=rationale)
    _REGISTRY[id] = rule
    return rule


def load_builtin_rules() -> None:
    """Import the built-in rule modules so their registrations run (idempotent)."""
    import importlib

    for module in _BUILTIN_MODULES:
        importlib.import_module(module)


def get_rule(id: str) -> LintRule:
    """Look up a rule by id, loading the built-ins on first use."""
    if id not in _REGISTRY:
        load_builtin_rules()
    try:
        return _REGISTRY[id]
    except KeyError:
        raise LintError(f"unknown lint rule {id!r}; registered: {rule_ids()}") from None


def rule_ids() -> List[str]:
    """Sorted ids of every registered rule (built-ins included)."""
    load_builtin_rules()
    return sorted(_REGISTRY)


def all_rules() -> List[LintRule]:
    """Every registered rule, sorted by id."""
    return [_REGISTRY[id] for id in rule_ids()]
