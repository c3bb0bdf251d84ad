"""Shared configuration for the benchmark harness.

Every benchmark regenerates one figure of the paper at a reduced default scale (so the
whole suite completes in minutes); the module docstrings state the paper-scale
invocation. Benchmarks print the same text tables `repro run` prints, so
``pytest benchmarks/ -m bench --benchmark-only -s`` shows the regenerated series
alongside the timing statistics.

Every test in this directory is marked ``bench``, and the repo-wide pytest
configuration (setup.cfg) deselects that marker by default — the tier-1 gate
(``python -m pytest -x -q``) therefore skips the benchmark suite by marker rather than
by path selection.
"""

import pathlib

import pytest

_BENCH_DIR = pathlib.Path(__file__).parent.resolve()


def pytest_collection_modifyitems(config, items):
    # This hook sees the whole session's items, not just this directory's — mark only
    # the tests that actually live under benchmarks/.
    for item in items:
        if _BENCH_DIR in pathlib.Path(str(item.fspath)).resolve().parents:
            item.add_marker(pytest.mark.bench)


@pytest.fixture
def once(benchmark):
    """Run the benched callable exactly once (simulation experiments are minutes-long)."""

    def runner(func, *args, **kwargs):
        return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner
