"""Column storage and the numpy requirement of the columnar engine.

The columnar engine stores every piece of per-node state in flat
:class:`array.array` columns (row-major, fixed-width slots) and executes every
whole-column phase (view ageing, estimator-window archiving, the shuffle pass,
per-node estimate means, in-degree bincounts) as vectorized numpy operations
over zero-copy :func:`numpy.frombuffer` views of those buffers. Only
elementwise integer arithmetic, gathers/scatters and elementwise IEEE-754
float operations are used, so each phase produces exactly the bytes a plain
per-row loop would — which is what the scalar reference in
``tests/columnar_oracle.py`` checks, round by round.

Float *reductions* are the one operation where numpy would diverge from a
sequential loop (pairwise summation reorders additions), so they never go
through numpy: user-visible sums fold through :func:`seq_sum`.

numpy is an optional dependency of the *package* (the object engine never
imports it) but a hard requirement of this engine: :func:`require_numpy` is the
one place that says so.
"""

from __future__ import annotations

from array import array
from typing import Iterable

from repro.errors import ConfigurationError

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    np = None

#: array.array typecode -> numpy dtype name (native byte order on both sides).
_DTYPES = {"b": "int8", "i": "int32", "q": "int64", "d": "float64"}


def require_numpy() -> None:
    """Raise the one named error for ``engine='columnar'`` without numpy."""
    if np is None:
        raise ConfigurationError(
            "engine='columnar' requires numpy, which is not installed; "
            "install the [columnar] extra (pip install -e .[columnar]) or run "
            "on engine='object', which has no dependencies"
        )


def as_np(column: array):
    """A writable zero-copy numpy view over an ``array.array`` column.

    Mutations write through to the underlying buffer. Views must be created fresh
    per operation and never held across a column resize (``extend`` may move the
    buffer).
    """
    return np.frombuffer(column, dtype=_DTYPES[column.typecode])


def new_column(typecode: str, length: int, fill: int = 0) -> array:
    """A flat column of ``length`` entries, all set to ``fill``."""
    if fill == 0:
        return array(typecode, bytes(length * array(typecode).itemsize))
    return array(typecode, [fill]) * length


def grow_column(column: array, extra: int, fill: int = 0) -> None:
    """Append ``extra`` entries of ``fill`` to a column (amortised node growth)."""
    if fill == 0:
        column.frombytes(bytes(extra * column.itemsize))
    else:
        column.extend(array(column.typecode, [fill]) * extra)


def seq_sum(values: Iterable[float]) -> float:
    """Strict left-to-right float accumulation — the shared reduction order.

    Every user-visible float reduction folds through this helper so it can
    never pick up numpy's pairwise-summation rounding.
    """
    total = 0.0
    for value in values:
        total += value
    return total
