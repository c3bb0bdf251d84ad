"""The discrete-event kernel: virtual clock, event queue and seeded RNG streams.

The simulator is deliberately minimal — a binary heap of ``(time, sequence, callback)``
entries — because the protocols above it only need three primitives: *schedule a callback
after a delay*, *cancel it*, and *what time is it now*. Determinism is a first-class
requirement: two runs with the same seed and the same scenario produce identical event
orders, which the integration tests rely on.

Hot-path notes
--------------
Events carry an optional single ``arg`` slot so high-volume callers (one scheduled
delivery per network packet) can schedule a bound method plus its argument directly
instead of allocating a closure per packet. The run loop pops each heap entry exactly
once (cancelled entries are discarded the first time they surface, never
re-examined).
"""

from __future__ import annotations

import hashlib
import heapq
import random
from math import ceil, log
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

from repro.errors import SimulationError

T = TypeVar("T")


class _NoArg:
    """Sentinel type distinguishing "no argument" from "argument is None".

    The sentinel is compared by identity in the event hot path, so it must survive
    ``copy.deepcopy`` as the *same* object — a cloned simulator (``Scenario.clone``)
    still has to recognise argument-less events.
    """

    __slots__ = ()

    def __copy__(self) -> "_NoArg":
        return self

    def __deepcopy__(self, memo: dict) -> "_NoArg":
        return self


#: Sentinel distinguishing "no argument" from "argument is None".
_NO_ARG = _NoArg()


class RandomStream(random.Random):
    """A :class:`random.Random` (same draws) that a deep copy (``Scenario.clone``)
    copies by ``getstate``/``setstate``, not word by word through its state."""

    def __deepcopy__(self, memo: dict) -> "RandomStream":
        clone = RandomStream(0)
        clone.setstate(self.getstate())
        return clone


#: Generators whose draws :func:`sample`, :func:`choice` and :func:`shuffle` inline.
_INLINE_TYPES = (random.Random, RandomStream)


def derive_seed(root_seed: object, *labels: object) -> int:
    """Derive an independent 64-bit seed from a root seed and a label path.

    This is the one seed-derivation rule in the codebase: :meth:`Simulator.derive_rng`
    uses it for per-component RNG streams, and the experiment-matrix runner uses it to
    give every (protocol, scenario, size, seed) cell its own deterministic seed, so a
    cell's result is a pure function of the root seed and its key — independent of
    which worker process runs it, or in what order.
    """
    digest = hashlib.sha256()
    digest.update(str(root_seed).encode("utf-8"))
    for label in labels:
        digest.update(b"\x1f")
        digest.update(repr(label).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big")


def sample(rng: random.Random, population: Sequence[T], k: int) -> List[T]:
    """``rng.sample(population, k)``, drawing exactly the numbers it would draw.

    CPython's ``Random.sample`` makes one Python-level ``_randbelow`` call per drawn
    element; on the protocol hot path (several small samples per node per round)
    that call overhead was the largest single cost. :func:`_sample_into` is the
    same algorithm with the draws inlined, so results and generator state are
    identical. A generator whose type is not exactly :class:`random.Random` or
    :class:`RandomStream` (a subclass may override ``random`` or ``getrandbits``)
    gets its own ``sample`` method.
    """
    if type(rng) not in _INLINE_TYPES:
        return rng.sample(population, k)
    n = len(population)
    if not 0 <= k <= n:
        raise ValueError("Sample larger than population or is negative")
    result: List[T] = []
    _sample_into(rng.getrandbits, population, (n,), k, result.append)
    return result


def sample_prefixes(
    rng: random.Random, population: Sequence[T], sizes: Iterable[int], k: int, out
) -> None:
    """For each size ``n`` in ``sizes``, in turn, append to ``out`` what
    ``rng.sample(population[:n], min(k, n))`` returns, drawing what it draws.

    One call draws what a loop of ``sample`` calls draws, without a call, a
    prefix copy and a result list per size: the columnar engine seeds a whole
    population's views this way, each row sampling the live publics created
    before it. ``out`` is anything with ``extend`` and ``append`` (a list, an
    ``array.array``).
    """
    if type(rng) not in _INLINE_TYPES:
        for n in sizes:
            out.extend(rng.sample(population[:n], min(k, n)))
        return
    _sample_into(rng.getrandbits, population, sizes, k, out.append)


def _sample_into(
    getrandbits: Callable[[int], int],
    population: Sequence[T],
    sizes: Iterable[int],
    k: int,
    append: Callable[[T], object],
) -> None:
    """CPython's ``Random.sample`` algorithm, once per size ``n`` in ``sizes``:
    ``append`` each of ``min(k, n)`` draws from ``population[:n]`` — the pool
    branch for small populations, the selected-set branch for large ones, the
    same ``setsize`` rule between them and the same ``getrandbits`` rejection
    loop."""
    setsize_of = setsize = -1  # the draw count ``setsize`` was worked out for
    for n in sizes:
        m = k if k < n else n
        if m != setsize_of:
            setsize_of = m
            setsize = 21  # size of a small set minus size of an empty list
            if m > 5:
                setsize += 4 ** ceil(log(m * 3, 4))  # table size for big sets
        if n <= setsize:
            # Invariant: the not-yet-selected elements are pool[0 : last + 1]. Each
            # draw is below last + 1 on (last + 1).bit_length() bits; that bit count
            # drops by one exactly when last falls below ``low``.
            pool = list(population[:n])
            bits = n.bit_length()
            low = (1 << bits >> 1) - 1
            for last in range(n - 1, n - 1 - m, -1):
                if last < low:
                    bits -= 1
                    low >>= 1
                j = getrandbits(bits)
                while j > last:
                    j = getrandbits(bits)
                append(pool[j])
                pool[j] = pool[last]
        else:
            # The set holds integer positions only, so its order never matters.
            selected = set()
            select = selected.add
            bits = n.bit_length()
            for _ in range(m):
                j = getrandbits(bits)
                while j >= n or j in selected:
                    j = getrandbits(bits)
                select(j)
                append(population[j])


def choice(rng: random.Random, seq: Sequence[T]) -> T:
    """``rng.choice(seq)`` with the draw inlined (see :func:`sample`)."""
    if type(rng) not in _INLINE_TYPES:
        return rng.choice(seq)
    n = len(seq)
    if not n:
        raise IndexError("Cannot choose from an empty sequence")
    bits = n.bit_length()
    j = rng.getrandbits(bits)
    while j >= n:
        j = rng.getrandbits(bits)
    return seq[j]


def shuffle(rng: random.Random, x: List[T]) -> None:
    """``rng.shuffle(x)`` with the draws inlined (see :func:`sample`)."""
    if type(rng) not in _INLINE_TYPES:
        rng.shuffle(x)
        return
    getrandbits = rng.getrandbits
    for i in range(len(x) - 1, 0, -1):
        bits = (i + 1).bit_length()
        j = getrandbits(bits)
        while j > i:
            j = getrandbits(bits)
        x[i], x[j] = x[j], x[i]


class EventHandle:
    """A cancellable reference to a scheduled event.

    Cancellation is *lazy*: the heap entry stays in the queue but is skipped when it
    reaches the front. This keeps cancellation O(1), which matters because protocols
    cancel large numbers of timeouts (every successfully answered request cancels one).
    """

    __slots__ = ("time", "seq", "callback", "arg", "cancelled")

    def __init__(
        self, time: float, seq: int, callback: Callable[..., None], arg: object = _NO_ARG
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback: Optional[Callable[..., None]] = callback
        self.arg = arg
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing. Safe to call more than once (or after firing)."""
        self.cancelled = True
        self.callback = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time}, seq={self.seq}, {state})"


class Simulator:
    """Virtual clock plus event queue.

    Parameters
    ----------
    seed:
        Master seed for the run. All randomness in a simulation must be drawn either
        from :attr:`rng` or from a stream derived with :meth:`derive_rng`, never from
        the global :mod:`random` module, so that runs are reproducible.

    Notes
    -----
    Time is a float number of milliseconds since the start of the run. Events scheduled
    at the same timestamp fire in scheduling order (FIFO), which keeps protocol
    behaviour stable across platforms.
    """

    def __init__(self, seed: int = 42) -> None:
        self.seed = seed
        self.now: float = 0.0
        self.rng: random.Random = RandomStream(seed)
        # The heap stores (time, seq, handle) tuples: unique sequence numbers break
        # time ties, so comparisons stay inside C tuple code and never reach the
        # handle object (EventHandle needs no __lt__ at all).
        self._queue: List[tuple] = []
        self._seq = 0
        self._events_executed = 0
        self._running = False

    # ------------------------------------------------------------------ scheduling

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        arg: object = _NO_ARG,
    ) -> EventHandle:
        """Schedule ``callback`` to run at absolute virtual time ``time`` (ms).

        If ``arg`` is given, the callback is invoked as ``callback(arg)`` — the
        allocation-free alternative to wrapping the argument in a lambda.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event in the past: t={time} < now={self.now}"
            )
        handle = EventHandle(time, self._seq, callback, arg)
        self._seq += 1
        heapq.heappush(self._queue, (time, handle.seq, handle))
        return handle

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        arg: object = _NO_ARG,
    ) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` milliseconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.schedule_at(self.now + delay, callback, arg)

    # ------------------------------------------------------------------ execution

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run the event loop.

        Parameters
        ----------
        until:
            Stop once the virtual clock would advance past this time (ms). Events at
            exactly ``until`` are executed. If ``None``, run until the queue drains.
        max_events:
            Safety valve: stop after this many events even if more are pending.

        Returns
        -------
        int
            The number of events executed by this call.
        """
        executed = 0
        queue = self._queue
        heappop = heapq.heappop
        self._running = True
        try:
            while queue:
                if max_events is not None and executed >= max_events:
                    break
                head = queue[0][2]
                if head.cancelled:
                    # Discard exactly once; the entry is never re-examined.
                    heappop(queue)
                    continue
                if until is not None and head.time > until:
                    break
                heappop(queue)
                # Fire inline: one frame per event, not one more per dispatch.
                self.now = head.time
                callback = head.callback
                arg = head.arg
                head.callback = None
                self._events_executed += 1
                if arg is _NO_ARG:
                    callback()
                else:
                    callback(arg)
                executed += 1
            if until is not None and self.now < until:
                # Advance the clock even if no event lands exactly on the horizon, so
                # repeated run(until=...) calls see monotonically increasing time.
                self.now = until
        finally:
            self._running = False
        return executed

    def run_for(self, duration: float, max_events: Optional[int] = None) -> int:
        """Run the event loop for ``duration`` more milliseconds of virtual time."""
        return self.run(until=self.now + duration, max_events=max_events)

    # ------------------------------------------------------------------ randomness

    def derive_rng(self, *labels: object) -> random.Random:
        """Create an independent, reproducible random stream.

        The stream is a pure function of the master seed and the given labels, so
        components can create their own generators without perturbing each other:

        >>> sim = Simulator(seed=7)
        >>> a = sim.derive_rng("croupier", 12)
        >>> b = sim.derive_rng("croupier", 12)
        >>> a.random() == b.random()
        True
        """
        return RandomStream(derive_seed(self.seed, *labels))

    # ------------------------------------------------------------------ introspection

    @property
    def events_executed(self) -> int:
        """Total number of live (non-cancelled) callbacks executed so far."""
        return self._events_executed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(seed={self.seed}, now={self.now:.1f}ms, "
            f"queued={len(self._queue)})"
        )
