"""Columnar simulation engine: flat-array state, batched rounds, streaming metrics.

The second execution backend behind the protocol plugin API (selected with
``engine="columnar"`` on :class:`~repro.workload.scenario.ScenarioConfig` or as a
matrix axis). See docs/columnar_backend.md for array layouts, the determinism
contract, and the documented fidelity deltas from the object backend.
"""

from repro.columnar.engine import ColumnarEngine
from repro.columnar.scenario import ColumnarScenario
from repro.columnar.streaming import ReservoirSample, StreamingHistogram

__all__ = [
    "ColumnarEngine",
    "ColumnarScenario",
    "ReservoirSample",
    "StreamingHistogram",
]
