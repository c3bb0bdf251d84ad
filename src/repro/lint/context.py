"""Per-file analysis context shared by every lint rule.

A :class:`FileContext` parses one source file once and exposes what rules need:

* the ``ast`` tree plus a line → enclosing-scope map (for allowlist scoping);
* inline suppression comments — ``# repro-lint: allow[rule-a,rule-b]`` on a code
  line suppresses that line, on a standalone line it suppresses the next line;
* an import-alias table that normalizes call targets to dotted names
  (``from time import perf_counter as pc; pc()`` → ``time.perf_counter``), so
  rules match semantics, not spellings.

Rules see one file at a time.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import ReproError


class LintError(ReproError):
    """The linter itself was misconfigured (bad rule id, unreadable allowlist, ...)."""


#: Inline suppression syntax. The rule list is comma-separated; ids must be
#: registered (``--strict`` turns unknown ids into findings instead of silence).
SUPPRESS_RE = re.compile(r"repro-lint:\s*allow\[([^\]]*)\]")


class Suppression:
    """One parsed ``repro-lint: allow[...]`` comment."""

    __slots__ = ("line", "target_line", "rules", "used")

    def __init__(self, line: int, target_line: int, rules: Tuple[str, ...]) -> None:
        self.line = line  # where the comment sits (reported in strict findings)
        self.target_line = target_line  # the line whose findings it suppresses
        self.rules = rules
        self.used = False


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class FileContext:
    """Everything the rules need to know about one parsed source file."""

    def __init__(self, path: Path, display_path: str, source: str) -> None:
        self.path = path
        #: Repo-relative posix path used in findings and allowlist matching.
        self.display_path = display_path
        self.source = source
        self.tree = ast.parse(source, filename=display_path)
        self.suppressions = self._parse_suppressions(source)
        #: alias → dotted module or module.attr, from import statements.
        self.import_aliases = self._parse_imports(self.tree)
        self._scope_spans = self._scope_map(self.tree)

    # ------------------------------------------------------------------ parsing

    @staticmethod
    def _parse_suppressions(source: str) -> List[Suppression]:
        suppressions: List[Suppression] = []
        code_lines: Set[int] = set()
        comments: List[Tuple[int, str]] = []
        try:
            tokens = tokenize.generate_tokens(io.StringIO(source).readline)
            for token in tokens:
                if token.type == tokenize.COMMENT:
                    comments.append((token.start[0], token.string))
                elif token.type not in (
                    tokenize.NL,
                    tokenize.NEWLINE,
                    tokenize.INDENT,
                    tokenize.DEDENT,
                    tokenize.ENCODING,
                    tokenize.ENDMARKER,
                ):
                    code_lines.add(token.start[0])
        except tokenize.TokenError:
            # ast.parse succeeded, so this is a tokenizer edge case; no comments
            # is the safe (non-suppressing) answer.
            return []
        for line, text in comments:
            match = SUPPRESS_RE.search(text)
            if match is None:
                continue
            rules = tuple(
                rule.strip() for rule in match.group(1).split(",") if rule.strip()
            )
            target = line if line in code_lines else line + 1
            suppressions.append(Suppression(line, target, rules))
        return suppressions

    @staticmethod
    def _parse_imports(tree: ast.Module) -> Dict[str, str]:
        aliases: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    aliases[item.asname or item.name.split(".")[0]] = (
                        item.name if item.asname else item.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for item in node.names:
                    if item.name == "*":
                        continue
                    aliases[item.asname or item.name] = f"{node.module}.{item.name}"
        return aliases

    @staticmethod
    def _scope_map(tree: ast.Module) -> List[Tuple[int, int, str]]:
        spans: List[Tuple[int, int, str]] = []

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    name = f"{prefix}.{child.name}" if prefix else child.name
                    end = getattr(child, "end_lineno", child.lineno) or child.lineno
                    spans.append((child.lineno, end, name))
                    visit(child, name)
                else:
                    visit(child, prefix)

        visit(tree, "")
        # Inner-most scope must win: sort by span start so later (nested, hence
        # shorter and later-starting) spans override on lookup.
        spans.sort(key=lambda span: (span[0], -span[1]))
        return spans

    # ------------------------------------------------------------------ queries

    def scope_at(self, line: int) -> str:
        """Qualified name of the innermost def/class enclosing ``line``."""
        best = "<module>"
        for start, end, name in self._scope_spans:
            if start <= line <= end:
                best = name
            elif start > line:
                break
        return best

    def resolve_call_target(self, func: ast.AST) -> Optional[str]:
        """Normalized dotted name of a call target, through import aliases.

        ``pc()`` after ``from time import perf_counter as pc`` resolves to
        ``time.perf_counter``; ``self.anything()`` resolves to ``None`` (rules
        never guess about attribute access on objects).
        """
        dotted = _dotted(func)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        expansion = self.import_aliases.get(head)
        if expansion is not None:
            dotted = f"{expansion}.{rest}" if rest else expansion
        return dotted

    def is_suppressed(self, line: int, rule: str) -> bool:
        """Does an inline comment suppress ``rule`` on ``line``? Marks the
        matching suppression(s) used — only genuinely matching ones, so the
        strict unused-suppression audit stays truthful."""
        hit = False
        for suppression in self.suppressions:
            if suppression.target_line == line and rule in suppression.rules:
                suppression.used = True
                hit = True
        return hit

