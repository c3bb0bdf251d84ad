"""Lint policy: which invariant applies where.

The determinism rules are not uniform across the package — ``sort_keys=True`` is an
invariant only in modules whose JSON bytes are digested, committed or compared by
CI, and ``__slots__`` is an invariant only in the hot-path object tiers PR 1
optimised. This module is the single place those tiers are declared, so adding a
module to a tier is a one-line policy change, not a rule edit.

Paths are matched as posix suffixes (``repro/workload/timeline.py`` matches the
file wherever the checkout lives), which also lets test fixtures opt into a tier by
mirroring the path shape. :func:`path_matches_suffix` is the one matcher — tier
declarations here and ``.repro-lint-allow`` entries go through it, and both use
the same canonical package-relative form: ``repro/...`` with no ``src/`` prefix
(a leading ``src/`` is tolerated at match time but rejected by the strict-mode
allowlist audit, so the two spellings can never drift apart again).
"""

from __future__ import annotations

from typing import Tuple

#: Modules whose emitted JSON / iteration order reaches digested or committed
#: bytes: matrix aggregates (runner), journal records and spec digests
#: (checkpoint), payload integrity digests (faults), canonical timeline documents
#: (timeline/events), payload and aggregate construction (payload/collector,
#: matrix, report) and the streamed histogram path (columnar/streaming). The
#: ``unsorted-json`` and ``unsorted-iteration`` rules fire only here.
CANONICAL_MODULES: Tuple[str, ...] = (
    "repro/experiments/runner.py",
    "repro/experiments/checkpoint.py",
    "repro/experiments/faults.py",
    "repro/experiments/matrix.py",
    "repro/experiments/report.py",
    "repro/metrics/payload.py",
    "repro/metrics/collector.py",
    "repro/workload/timeline.py",
    "repro/workload/events.py",
    "repro/columnar/streaming.py",
)

#: Hot-path modules whose classes must declare ``__slots__`` — the
#: descriptor/view/message tiers are allocated per node per round, and PR 1's
#: 3.3x win depends on them staying dict-free. The ``missing-slots`` rule fires
#: only here.
SLOTS_MODULES: Tuple[str, ...] = (
    "repro/membership/descriptor.py",
    "repro/membership/view.py",
    "repro/simulator/message.py",
)

#: Wall-clock / ambient-entropy call targets (normalized dotted names): values
#: that differ between two runs of the same seed. Legitimate *diagnostic* uses
#: (duration telemetry that provably stays out of aggregate bytes) are recorded
#: in the committed allowlist, each justified in docs/determinism_lint.md.
WALLCLOCK_CALLS: Tuple[str, ...] = (
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "uuid.uuid1",
    "uuid.uuid4",
    "os.urandom",
    "secrets.token_bytes",
    "secrets.token_hex",
    "secrets.token_urlsafe",
    "secrets.randbits",
    "secrets.randbelow",
    "secrets.choice",
)

#: Functions of the ``random`` *module* (the hidden process-global Mersenne
#: Twister). Calling any of these couples a result to import order and to every
#: other consumer of the global stream; all randomness must flow through an
#: injected ``random.Random`` seeded via ``derive_seed``.
GLOBAL_RNG_FUNCTIONS: Tuple[str, ...] = (
    "random",
    "randint",
    "randrange",
    "randbytes",
    "getrandbits",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "uniform",
    "triangular",
    "betavariate",
    "expovariate",
    "gammavariate",
    "gauss",
    "lognormvariate",
    "normalvariate",
    "vonmisesvariate",
    "paretovariate",
    "weibullvariate",
)

#: ``numpy.random`` is off limits entirely: its global state is as hidden as the
#: stdlib one, and seeded ``numpy.random.Generator`` streams are not part of this
#: repo's determinism story (the columnar engine takes one 64-bit seed from its
#: injected ``random.Random`` stream and keys its own counter RNG with it —
#: ``columnar/rng.py``).
NUMPY_RANDOM_PREFIXES: Tuple[str, ...] = (
    "numpy.random",
    "np.random",
)


def normalize_path_suffix(suffix: str) -> str:
    """Canonical form of a tier/allowlist path suffix: posix, package-relative.

    ``src/repro/...`` and ``./repro/...`` normalize to ``repro/...`` — the one
    spelling the docs, the tiers above and ``.repro-lint-allow`` all use.
    """
    suffix = suffix.replace("\\", "/")
    while suffix.startswith("./"):
        suffix = suffix[2:]
    if suffix.startswith("src/"):
        suffix = suffix[len("src/") :]
    return suffix


def path_matches_suffix(path: str, suffix: str) -> bool:
    """Does posix ``path`` end with ``suffix`` at a path-component boundary?

    The single matcher behind every tier predicate and allowlist entry; both
    sides are normalized first, so an entry written as ``src/repro/...`` still
    matches a finding reported as ``repro/...`` (and vice versa).
    """
    path = normalize_path_suffix(path)
    suffix = normalize_path_suffix(suffix)
    return path == suffix or path.endswith("/" + suffix)


def _matches(path: str, suffixes: Tuple[str, ...]) -> bool:
    return any(path_matches_suffix(path, suffix) for suffix in suffixes)


def is_canonical_module(path: str) -> bool:
    """Does ``path`` (posix) produce digested / committed / CI-compared bytes?"""
    return _matches(path, CANONICAL_MODULES)


def is_slots_module(path: str) -> bool:
    """Is ``path`` (posix) in the hot-path tier that must declare ``__slots__``?"""
    return _matches(path, SLOTS_MODULES)
