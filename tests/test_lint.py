"""Tests for the determinism & invariant linter (``repro.lint`` / ``repro lint``).

Per rule: a positive fixture (the violation fires), a negative fixture (the
disciplined idiom passes) and a suppressed fixture (the inline escape hatch
works). Plus: allowlist round-trip and strict-mode rot audits, JSON schema
stability (``repro-lint-v1`` is a CI surface), CLI exit codes and surface, and
the gate that motivates everything — a repo-wide self-run asserting the tree is
clean.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import (
    Allowlist,
    LintError,
    LintReport,
    get_rule,
    rule_ids,
    run_lint,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src" / "repro"


def lint_source(
    tmp_path: Path,
    source: str,
    name: str = "module.py",
    rules=None,
    strict: bool = False,
    allowlist=None,
) -> LintReport:
    """Write ``source`` under ``tmp_path`` (``name`` may carry directories, so a
    fixture can opt into a policy tier by mirroring its path shape) and lint it."""
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    if allowlist is None:
        allowlist = Allowlist.empty()
    return run_lint([path], rules=rules, strict=strict, allowlist=allowlist)


def finding_rules(report: LintReport):
    return [finding.rule for finding in report.sorted_findings()]


# ----------------------------------------------------------------- rng discipline


class TestGlobalRng:
    def test_module_level_call_fires(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            import random

            def pick(items):
                return random.choice(items)
            """,
        )
        assert finding_rules(report) == ["global-rng"]
        assert "derive_seed" in report.findings[0].message

    def test_from_import_fires(self, tmp_path):
        report = lint_source(tmp_path, "from random import shuffle\n")
        assert finding_rules(report) == ["global-rng"]

    def test_injected_stream_passes(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            import random

            def pick(rng: random.Random, items):
                return rng.choice(items)
            """,
        )
        assert report.findings == []

    def test_inline_suppression(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            import random

            def pick(items):
                return random.choice(items)  # repro-lint: allow[global-rng]
            """,
        )
        assert report.findings == []
        assert report.suppressed == 1

    def test_standalone_suppression_covers_next_line(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            import random

            def pick(items):
                # repro-lint: allow[global-rng]
                return random.choice(items)
            """,
        )
        assert report.findings == []
        assert report.suppressed == 1


class TestUnseededRng:
    def test_unseeded_random_fires(self, tmp_path):
        report = lint_source(tmp_path, "import random\nrng = random.Random()\n")
        assert finding_rules(report) == ["unseeded-rng"]

    def test_system_random_fires(self, tmp_path):
        report = lint_source(tmp_path, "import random\nrng = random.SystemRandom()\n")
        assert finding_rules(report) == ["unseeded-rng"]

    def test_seeded_random_passes(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            import random

            def stream(seed: int) -> random.Random:
                return random.Random(seed)
            """,
        )
        assert report.findings == []


class TestGlobalSeed:
    def test_random_seed_fires(self, tmp_path):
        report = lint_source(tmp_path, "import random\nrandom.seed(42)\n")
        assert finding_rules(report) == ["global-seed"]

    def test_numpy_random_fires_once_per_site(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            import numpy as np

            np.random.seed(7)
            """,
        )
        assert finding_rules(report) == ["global-seed"]

    def test_instance_seed_passes(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            import random

            rng = random.Random(3)
            rng.seed(4)
            """,
        )
        assert report.findings == []


# ------------------------------------------------------------- canonical hygiene

#: Path shape that opts a fixture into the canonical-output tier.
CANONICAL_NAME = "repro/workload/timeline.py"


class TestUnsortedJson:
    def test_dumps_without_sort_keys_fires(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import json\n\n\ndef doc(d):\n    return json.dumps(d)\n",
            name=CANONICAL_NAME,
        )
        assert finding_rules(report) == ["unsorted-json"]

    def test_sorted_dumps_passes(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import json\n\n\ndef doc(d):\n    return json.dumps(d, sort_keys=True)\n",
            name=CANONICAL_NAME,
        )
        assert report.findings == []

    def test_non_canonical_module_exempt(self, tmp_path):
        report = lint_source(
            tmp_path, "import json\n\n\ndef doc(d):\n    return json.dumps(d)\n"
        )
        assert report.findings == []


class TestUnsortedIteration:
    def test_set_iteration_fires(self, tmp_path):
        report = lint_source(
            tmp_path,
            "def keys(items):\n    return [k for k in set(items)]\n",
            name=CANONICAL_NAME,
        )
        assert finding_rules(report) == ["unsorted-iteration"]

    def test_listdir_iteration_fires(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import os\n\n\ndef names(d):\n    for n in os.listdir(d):\n        yield n\n",
            name=CANONICAL_NAME,
        )
        assert finding_rules(report) == ["unsorted-iteration"]

    def test_sorted_wrapper_passes(self, tmp_path):
        report = lint_source(
            tmp_path,
            "def keys(items):\n    return [k for k in sorted(set(items))]\n",
            name=CANONICAL_NAME,
        )
        assert report.findings == []


class TestJsonRoundtripCopy:
    def test_roundtrip_fires_anywhere(self, tmp_path):
        report = lint_source(
            tmp_path, "import json\n\n\ndef clone(d):\n    return json.loads(json.dumps(d))\n"
        )
        assert finding_rules(report) == ["json-roundtrip-copy"]
        assert "copy.deepcopy" in report.findings[0].message

    def test_deepcopy_passes(self, tmp_path):
        report = lint_source(
            tmp_path, "import copy\n\n\ndef clone(d):\n    return copy.deepcopy(d)\n"
        )
        assert report.findings == []


# ------------------------------------------------------------------- wall clock


class TestWallClock:
    def test_time_call_fires(self, tmp_path):
        report = lint_source(
            tmp_path, "import time\n\n\ndef stamp():\n    return time.time()\n"
        )
        assert finding_rules(report) == ["wall-clock"]

    def test_aliased_import_normalized(self, tmp_path):
        report = lint_source(
            tmp_path,
            "from time import perf_counter as pc\n\n\ndef stamp():\n    return pc()\n",
        )
        assert finding_rules(report) == ["wall-clock"]
        assert "time.perf_counter" in report.findings[0].message

    def test_uuid4_and_urandom_fire(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import os\nimport uuid\n\ntoken = uuid.uuid4()\nnoise = os.urandom(8)\n",
        )
        assert finding_rules(report) == ["wall-clock", "wall-clock"]

    def test_virtual_clock_passes(self, tmp_path):
        report = lint_source(
            tmp_path, "def stamp(sim):\n    return sim.now()\n"
        )
        assert report.findings == []


# ----------------------------------------------------------------------- slots

#: Path shape that opts a fixture into the hot-path slots tier.
SLOTS_NAME = "repro/simulator/message.py"


class TestMissingSlots:
    def test_dictful_class_fires(self, tmp_path):
        report = lint_source(
            tmp_path,
            "class Heavy:\n    def __init__(self):\n        self.x = 1\n",
            name=SLOTS_NAME,
        )
        assert finding_rules(report) == ["missing-slots"]

    def test_slotted_and_exempt_classes_pass(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            import enum
            from dataclasses import dataclass


            class Lean:
                __slots__ = ("x",)


            @dataclass(slots=True)
            class AlsoLean:
                x: int = 0


            class Kind(enum.Enum):
                A = 1


            class BoomError(Exception):
                pass
            """,
            name=SLOTS_NAME,
        )
        assert report.findings == []

    def test_non_hot_path_module_exempt(self, tmp_path):
        report = lint_source(
            tmp_path, "class Heavy:\n    def __init__(self):\n        self.x = 1\n"
        )
        assert report.findings == []


# ----------------------------------------------------- allowlist and strict mode


class TestAllowlist:
    def test_round_trip_absorbs_and_counts(self, tmp_path):
        allow = tmp_path / ".repro-lint-allow"
        allow.write_text(
            "# diagnostics\nwall-clock  module.py  stamp\n"
        )
        report = lint_source(
            tmp_path,
            "import time\n\n\ndef stamp():\n    return time.time()\n",
            allowlist=Allowlist.load(allow),
        )
        assert report.findings == []
        assert report.allowlisted == 1

    def test_scope_mismatch_does_not_absorb(self, tmp_path):
        allow = tmp_path / ".repro-lint-allow"
        allow.write_text("wall-clock  module.py  other_function\n")
        report = lint_source(
            tmp_path,
            "import time\n\n\ndef stamp():\n    return time.time()\n",
            allowlist=Allowlist.load(allow),
        )
        assert finding_rules(report) == ["wall-clock"]

    def test_unused_entry_is_strict_error(self, tmp_path):
        allow = tmp_path / ".repro-lint-allow"
        allow.write_text("wall-clock  nowhere.py  *\n")
        report = lint_source(
            tmp_path, "x = 1\n", strict=True, allowlist=Allowlist.load(allow)
        )
        assert finding_rules(report) == ["unused-allowlist"]

    def test_unknown_rule_in_entry_is_strict_error(self, tmp_path):
        allow = tmp_path / ".repro-lint-allow"
        allow.write_text("no-such-rule  module.py  *\n")
        report = lint_source(
            tmp_path, "x = 1\n", strict=True, allowlist=Allowlist.load(allow)
        )
        assert finding_rules(report) == ["unknown-suppression"]

    def test_malformed_entry_rejected(self, tmp_path):
        allow = tmp_path / ".repro-lint-allow"
        allow.write_text("just-one-field\n")
        with pytest.raises(LintError):
            Allowlist.load(allow)


class TestStrictMode:
    def test_unknown_suppression_is_strict_error(self, tmp_path):
        source = "x = 1  # repro-lint: allow[no-such-rule]\n"
        assert lint_source(tmp_path, source).findings == []
        report = lint_source(tmp_path, source, strict=True)
        assert finding_rules(report) == ["unknown-suppression"]

    def test_unused_suppression_is_strict_error(self, tmp_path):
        source = "x = 1  # repro-lint: allow[global-rng]\n"
        report = lint_source(tmp_path, source, strict=True)
        assert finding_rules(report) == ["unused-suppression"]

    def test_used_suppression_is_clean_in_strict(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import random\nrandom.seed(1)  # repro-lint: allow[global-seed]\n",
            strict=True,
        )
        assert report.findings == []
        assert report.suppressed == 1

    def test_rule_subset_skips_unused_audit(self, tmp_path):
        # A --rules subset legitimately leaves other rules' suppressions idle.
        report = lint_source(
            tmp_path,
            "x = 1  # repro-lint: allow[global-rng]\n",
            rules=["wall-clock"],
            strict=True,
        )
        assert report.findings == []


class TestAllowlistPathForm:
    def test_src_prefixed_entry_still_matches(self, tmp_path):
        allow = tmp_path / ".repro-lint-allow"
        allow.write_text("wall-clock src/repro/experiments/runner.py *\n")
        report = lint_source(
            tmp_path,
            "import time\nstamp = time.time()\n",
            name="src/repro/experiments/runner.py",
            allowlist=Allowlist.load(allow),
        )
        assert report.findings == []
        assert report.allowlisted == 1

    def test_strict_rejects_non_canonical_form(self, tmp_path):
        allow = tmp_path / ".repro-lint-allow"
        allow.write_text("wall-clock src/repro/experiments/runner.py *\n")
        report = lint_source(
            tmp_path,
            "import time\nstamp = time.time()\n",
            name="src/repro/experiments/runner.py",
            strict=True,
            allowlist=Allowlist.load(allow),
        )
        assert finding_rules(report) == ["allowlist-path-form"]
        assert "repro/experiments/runner.py" in report.findings[0].message

    def test_canonical_form_is_strict_clean(self, tmp_path):
        allow = tmp_path / ".repro-lint-allow"
        allow.write_text("wall-clock repro/experiments/runner.py *\n")
        report = lint_source(
            tmp_path,
            "import time\nstamp = time.time()\n",
            name="src/repro/experiments/runner.py",
            strict=True,
            allowlist=Allowlist.load(allow),
        )
        assert report.findings == []


# ----------------------------------------------------------- output and schema


class TestOutputSchema:
    def test_json_schema_stable(self, tmp_path):
        report = lint_source(
            tmp_path, "import random\nrandom.seed(1)\nrng = random.Random()\n"
        )
        document = json.loads(report.to_json())
        assert document["schema"] == "repro-lint-v1"
        assert set(document) == {
            "schema",
            "rules",
            "files_checked",
            "findings",
            "suppressed",
            "allowlisted",
        }
        assert document["files_checked"] == 1
        assert [f["rule"] for f in document["findings"]] == [
            "global-seed",
            "unseeded-rng",
        ]
        for finding in document["findings"]:
            assert set(finding) == {
                "path",
                "line",
                "col",
                "rule",
                "severity",
                "scope",
                "message",
            }
            assert finding["severity"] == "error"

    def test_findings_sorted_deterministically(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import random\nimport time\n\nb = random.random()\na = time.time()\n",
        )
        ordered = [(f.line, f.rule) for f in report.sorted_findings()]
        assert ordered == sorted(ordered)

    def test_unknown_rule_id_rejected(self, tmp_path):
        with pytest.raises(LintError):
            lint_source(tmp_path, "x = 1\n", rules=["no-such-rule"])

    def test_registry_exposes_docs(self):
        assert "global-rng" in rule_ids()
        rule = get_rule("wall-clock")
        assert rule.description
        assert rule.rationale


# -------------------------------------------------------------------- CLI & repo


class TestCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text("x = 1\n")
        assert main(["lint", str(path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_deliberate_violation_fails_the_gate(self, tmp_path, capsys):
        # The acceptance scenario: a bare random.random() in a matrix-kind-like
        # module must fail `repro lint` (and therefore the CI gate running it).
        path = tmp_path / "matrix_kind.py"
        path.write_text(
            "import random\n\n\ndef run_cell(context):\n"
            "    return random.random()\n"
        )
        assert main(["lint", str(path)]) == 1
        assert "global-rng" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        path = tmp_path / "clean.py"
        path.write_text("x = 1\n")
        assert main(["lint", "--format", "json", str(path)]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "repro-lint-v1"

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in rule_ids():
            assert rule_id in out

    def test_rules_subset(self, tmp_path, capsys):
        path = tmp_path / "mixed.py"
        path.write_text("import time\nstamp = time.time()\n")
        assert main(["lint", "--rules", "global-rng", str(path)]) == 0
        assert main(["lint", "--rules", "wall-clock", str(path)]) == 1
        capsys.readouterr()

    def test_surface_is_pinned(self, capsys):
        # The retired rule tier, flags, format and subcommand stay retired.
        assert main(["lint", "--list-rules"]) == 0
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()[1:]]
        assert listed == [
            "global-rng", "global-seed", "json-roundtrip-copy", "missing-slots",
            "unseeded-rng", "unsorted-iteration", "unsorted-json", "wall-clock",
        ]
        for argv in (
            ["lint", "--cache", "."],
            ["lint", "--changed", "."],
            ["lint", "--format", "sarif", "."],
            ["bench"],
        ):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
        capsys.readouterr()


class TestRepoIsClean:
    def test_repo_self_run_zero_findings_strict(self):
        report = run_lint(
            [SRC],
            strict=True,
            allowlist=Allowlist.load(REPO_ROOT / ".repro-lint-allow"),
            base_dir=REPO_ROOT,
        )
        assert report.findings == [], "\n" + report.to_text()
        assert report.files_checked > 90
        assert report.allowlisted > 0  # the justified diagnostic timers
