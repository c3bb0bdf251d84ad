"""``scripts/census.py`` sorts a toy package's functions into the three sets: what the
"product" command runs (in its own process or a forked child), what only the "test"
command runs, and what nothing runs. Runs two tiny interpreters, no gate."""

from __future__ import annotations

import fnmatch
import sys
import textwrap
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
sys.path.insert(0, str(SCRIPTS))

import census  # noqa: E402

TOY = '''
import multiprocessing


def product():
    return "product"


def tested():
    return "tested"


def unused():
    return "unused"


def forked():
    return "forked"


def main():
    product()
    child = multiprocessing.get_context("fork").Process(target=forked)
    child.start()
    child.join()
'''


def test_census_sorts_a_toy_package(tmp_path):
    toy = tmp_path / "toy"
    toy.mkdir()
    (toy / "__init__.py").write_text(textwrap.dedent(TOY), encoding="utf-8")
    python = sys.executable
    sets = census.census(
        toy,
        product=[(python, "-c", "import toy; toy.main()")],
        tier1=[(python, "-c", "import toy; toy.tested()")],
        cwd=tmp_path,
    )
    assert sets == {
        "product-run": {"toy:<module>", "toy:main", "toy:product", "toy:forked"},
        "test-only": {"toy:tested"},
        "never-run": {"toy:unused"},
    }


def test_every_keep_pattern_names_a_function():
    """A pattern of the keep-literal that names nothing left in ``src/`` is stale."""
    names = census.universe(SCRIPTS.parent / "src" / "repro")
    patterns = [p for listed in census.KEEP.values() for p in listed.split()]
    assert [p for p in patterns if not fnmatch.filter(sorted(names), p)] == []
