"""Findings: what a lint rule reports and how reports are serialized.

A :class:`Finding` is one violation at one source location. Findings are value
objects with a total order (path, line, column, rule id) so that every rendering —
text, JSON, test assertions — is deterministic regardless of rule execution order;
the linter holds itself to the same canonical-output discipline it enforces.

The JSON document schema (``repro-lint-v1``) is part of the repo's CI surface
(``repro lint --format json``) and is pinned by ``tests/test_lint.py``; extend it
only by adding keys, never by renaming or re-typing existing ones.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

#: Schema tag of a JSON lint report.
LINT_SCHEMA = "repro-lint-v1"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    Attributes
    ----------
    path:
        Repo-relative posix path of the offending file (what text output prints and
        what allowlist entries match against).
    line, col:
        1-based line and 0-based column of the offending node.
    rule:
        The registered rule id (``global-rng``, ``wall-clock``, ...).
    message:
        Human-readable description: what is wrong and what the fix is.
    scope:
        Qualified name of the innermost enclosing function or class
        (``ClassName.method``), or ``<module>`` — what scoped allowlist entries
        match against.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    scope: str = "<module>"

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def to_text(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            # Every finding is an error (a determinism violation is never
            # advisory); the key stays so repro-lint-v1 documents do not change.
            "severity": "error",
            "scope": self.scope,
            "message": self.message,
        }


@dataclass
class LintReport:
    """The outcome of one lint run over a set of files."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    rules_run: Tuple[str, ...] = ()
    suppressed: int = 0
    allowlisted: int = 0

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def sorted_findings(self) -> List[Finding]:
        return sorted(self.findings, key=Finding.sort_key)

    def to_text(self) -> str:
        lines = [finding.to_text() for finding in self.sorted_findings()]
        lines.append(
            f"{len(self.findings)} finding(s) in {self.files_checked} file(s) "
            f"({self.suppressed} suppressed inline, {self.allowlisted} allowlisted)"
        )
        return "\n".join(lines)

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "schema": LINT_SCHEMA,
            "rules": list(self.rules_run),
            "files_checked": self.files_checked,
            "findings": [f.to_json_dict() for f in self.sorted_findings()],
            "suppressed": self.suppressed,
            "allowlisted": self.allowlisted,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=1)
