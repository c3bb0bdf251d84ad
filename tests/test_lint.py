"""Tests for the determinism linter (``repro.lint`` / ``repro lint``).

Per rule: a positive fixture (the violation fires) and a negative fixture (the
disciplined idiom passes). Plus: scoped allowlist matching and the strict
unused-entry audit, the committed allowlist's own shape, CLI exit codes and
surface, and the gate that motivates everything — a repo-wide self-run
asserting the tree is clean.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import ALLOWLIST, RULES, LintReport, run_lint

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src" / "repro"


def lint_source(
    tmp_path: Path,
    source: "str | bytes",
    name: str = "module.py",
    strict: bool = False,
    allowlist=(),
) -> LintReport:
    """Write ``source`` under ``tmp_path`` (``name`` may carry directories, so a
    fixture can opt into a policy tier by mirroring its path shape) and lint it.
    ``source`` may be bytes, written as they are."""
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(source, bytes):
        path.write_bytes(source)
    else:
        path.write_text(textwrap.dedent(source))
    return run_lint([path], strict=strict, allowlist=allowlist)


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
        # A comment is not an escape hatch: only the ALLOWLIST literal is.
        report = lint_source(
            tmp_path,
            """
            import random

            def pick(items):
                return random.choice(items)  # repro-lint: allow[global-rng]
            """,
        )
        assert finding_rules(report) == ["global-rng"]

    def test_pep263_latin1_source(self, tmp_path):
        # The file's coding cookie decides how its bytes decode.
        source = (
            "# -*- coding: latin-1 -*-\n"
            "import random\n"
            "caf\u00e9 = '\u00e9t\u00e9'\n"
            "x = random.random()\n"
        ).encode("latin-1")
        report = lint_source(tmp_path, source)
        assert [(f.rule, f.line) for f in report.findings] == [("global-rng", 4)]

    def test_undecodable_bytes_are_a_parse_error(self, tmp_path):
        report = lint_source(tmp_path, b"x = '\xff'\n")
        assert finding_rules(report) == ["parse-error"]


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

    def test_numpy_random_from_import_fires(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            from numpy.random import default_rng
            from numpy import random as npr

            rng = default_rng()
            """,
        )
        assert finding_rules(report) == ["global-seed", "global-seed"]

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

    def test_path_glob_iteration_fires(self, tmp_path):
        report = lint_source(
            tmp_path,
            """
            from pathlib import Path

            def docs(d):
                for p in Path(d).glob("*.json"):
                    yield p
            """,
            name="repro/experiments/runner.py",
        )
        assert finding_rules(report) == ["unsorted-iteration"]
        assert ".glob(...)" in report.findings[0].message

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
        report = lint_source(
            tmp_path,
            "import time\n\n\ndef stamp():\n    return time.time()\n",
            allowlist=[("wall-clock", "module.py", "stamp")],
        )
        assert report.findings == []
        assert report.allowlisted == 1

    def test_scope_mismatch_does_not_absorb(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import time\n\n\ndef stamp():\n    return time.time()\n",
            allowlist=[("wall-clock", "module.py", "other_function")],
        )
        assert finding_rules(report) == ["wall-clock"]

    def test_unused_entry_is_strict_error(self, tmp_path):
        report = lint_source(
            tmp_path, "x = 1\n", strict=True, allowlist=[("wall-clock", "nowhere.py", "*")]
        )
        assert finding_rules(report) == ["unused-allowlist"]

    def test_unknown_rule_in_entry_is_strict_error(self, tmp_path):
        # A misspelt rule id matches nothing, so strict reports the entry.
        report = lint_source(
            tmp_path, "x = 1\n", strict=True, allowlist=[("no-such-rule", "module.py", "*")]
        )
        assert finding_rules(report) == ["unused-allowlist"]

    def test_committed_entries_name_rules_and_package_paths(self):
        assert ALLOWLIST
        for rule, suffix, scope in ALLOWLIST:
            assert rule in RULES
            assert suffix.startswith("repro/") and suffix.endswith(".py")
            assert (SRC.parent / suffix).is_file()
            assert scope


class TestAllowlistPathForm:
    def test_src_prefixed_entry_still_matches(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import time\nstamp = time.time()\n",
            name="src/repro/experiments/runner.py",
            allowlist=[("wall-clock", "src/repro/experiments/runner.py", "*")],
        )
        assert report.findings == []
        assert report.allowlisted == 1

    def test_canonical_form_is_strict_clean(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import time\nstamp = time.time()\n",
            name="src/repro/experiments/runner.py",
            strict=True,
            allowlist=[("wall-clock", "repro/experiments/runner.py", "*")],
        )
        assert report.findings == []


# ------------------------------------------------------------------ output


class TestOutputSchema:
    def test_findings_sorted_deterministically(self, tmp_path):
        report = lint_source(
            tmp_path,
            "import random\nimport time\n\nb = random.random()\na = time.time()\n",
        )
        ordered = [(f.line, f.rule) for f in report.sorted_findings()]
        assert ordered == sorted(ordered)


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
        # The scope is printed: it is what an allowlist entry names.
        assert "global-rng [run_cell]" in capsys.readouterr().out

    def test_missing_target_exits_two(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "absent.py")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_surface_is_pinned(self, capsys):
        # `repro lint [PATH ...] [--strict]`: retired flags and subcommands stay
        # retired, and the eight rule ids are the whole rule set.
        assert list(RULES) == [
            "global-rng", "global-seed", "json-roundtrip-copy", "missing-slots",
            "unseeded-rng", "unsorted-iteration", "unsorted-json", "wall-clock",
        ]
        for argv in (
            ["lint", "--cache", "."],
            ["lint", "--changed", "."],
            ["lint", "--format", "json", "."],
            ["lint", "--rules", "wall-clock", "."],
            ["lint", "--allowlist", ".repro-lint-allow", "."],
            ["lint", "--list-rules"],
            ["bench"],
        ):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
        capsys.readouterr()


class TestRepoIsClean:
    def test_repo_self_run_zero_findings_strict(self):
        report = run_lint([SRC], strict=True, base_dir=REPO_ROOT)
        assert report.findings == [], "\n" + report.to_text()
        assert report.files_checked > 80
        assert report.allowlisted > 0  # the justified diagnostic timers
