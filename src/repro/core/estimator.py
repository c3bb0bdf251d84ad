"""Distributed estimation of the public/private node ratio (Section VI, eqs. 1–9).

Every **public** node (croupier) counts, per gossip round, how many shuffle requests it
received from public senders (``cu``) and how many from private senders (``cv``). Over a
sliding window of the last α rounds (the *local history*), the node's local estimate is

    E_i = Cu_i / (Cu_i + Cv_i)                                 (equation 6)

Because every node — public or private — sends exactly one shuffle request per round to
a uniformly chosen public node, the expected fraction of public-origin requests equals
the global ratio ω = |U| / (|U| + |V|) (equations 1–4).

Local estimates are piggy-backed on shuffle messages. Every node (public or private)
caches the estimates it has seen from public nodes for at most γ rounds (the *neighbour
history*) and averages them; a public node additionally includes its own local estimate
in the average (equations 8 and 9, procedure ``estimatePublicPrivateRatio``).
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.simulator.core import sample


class _EstimateFields:
    """The slots of a :class:`RatioEstimate`, without its immutability guard."""

    __slots__ = ("origin_id", "value", "age")


class RatioEstimate(_EstimateFields):
    """One public node's local estimate, as disseminated on shuffle messages.

    An immutable ``__slots__`` value object. Every shuffle message carries up to
    eleven of them, so each is filled in as the guard-free :class:`_EstimateFields`
    with plain slot stores and then given this class, as descriptors are
    (:mod:`repro.membership.descriptor`). Its encoding is :data:`repro.wire.ESTIMATE`.

    Attributes
    ----------
    origin_id:
        The public node that produced the estimate.
    value:
        The estimate E_i ∈ [0, 1].
    age:
        Rounds since the estimate was produced; incremented by every node that stores
        it, and used to discard estimates older than γ and to keep only the freshest
        estimate per origin.
    """

    __slots__ = ()

    def __new__(cls, origin_id: int, value: float, age: int = 0) -> "RatioEstimate":
        estimate = _EstimateFields()
        estimate.origin_id = origin_id
        estimate.value = value
        estimate.age = age
        estimate.__class__ = cls
        return estimate  # type: ignore[return-value]

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"RatioEstimate is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("RatioEstimate is immutable")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not RatioEstimate:
            return NotImplemented
        return (self.origin_id, self.value, self.age) == (
            other.origin_id,  # type: ignore[attr-defined]
            other.value,  # type: ignore[attr-defined]
            other.age,  # type: ignore[attr-defined]
        )

    def __hash__(self) -> int:
        return hash((self.origin_id, self.value, self.age))

    def __reduce__(self):
        return RatioEstimate, (self.origin_id, self.value, self.age)

    def __repr__(self) -> str:
        return (
            f"RatioEstimate(origin_id={self.origin_id!r}, value={self.value!r}, "
            f"age={self.age!r})"
        )

    def aged(self, increment: int = 1) -> "RatioEstimate":
        return RatioEstimate(self.origin_id, self.value, self.age + increment)

    def is_fresher_than(self, other: "RatioEstimate") -> bool:
        return self.age < other.age


class RatioEstimator:
    """Per-node state and arithmetic for the ratio estimation protocol.

    Parameters
    ----------
    alpha:
        α — the local history window, in rounds.
    gamma:
        γ — the neighbour history window, in rounds.
    is_public:
        Whether the owning node is public. Private nodes never have a local estimate
        (they receive no shuffle requests) and use equation 9 instead of 8.
    """

    def __init__(self, alpha: int, gamma: int, is_public: bool) -> None:
        if alpha <= 0 or gamma <= 0:
            raise ConfigurationError(f"alpha and gamma must be positive (α={alpha}, γ={gamma})")
        self.alpha = alpha
        self.gamma = gamma
        self.is_public = is_public
        # Per-round (cu, cv) pairs for the last α completed rounds, and their running
        # sums (Σcu, Σcv): kept up to date as rounds are archived and evicted, so the
        # local estimate is O(1). Integer sums, so the estimate is the same float the
        # per-call re-summation gave.
        self._history: Deque[Tuple[int, int]] = deque(maxlen=alpha)
        self._window_public_hits = 0
        self._window_private_hits = 0
        # Hit counters for the round currently in progress.
        self._current_public_hits = 0
        self._current_private_hits = 0
        # Neighbour estimates M_i: value and ``born = rounds_at_merge - wire_age`` by
        # origin id, in two dicts that gain and lose keys together (one insertion
        # order, no per-entry tuple). An entry's age is ``self.rounds - born``, so
        # ageing the cache each round is free. Wire-format :class:`RatioEstimate`
        # objects are materialised only when estimates leave through
        # :meth:`estimates_subset` / :meth:`neighbour_estimates`.
        self._neighbour_estimates: Dict[int, float] = {}
        self._neighbour_born: Dict[int, int] = {}
        # Origin ids in cache insertion order (mirrors the dict's own order). Kept so
        # estimates_subset can sample without building an O(cache) list per message;
        # rebuilt only when expiry actually removes entries.
        self._origin_order: List[int] = []
        # Lower bound on the smallest born round in the cache. Lets advance_round
        # skip the expiry scan entirely while nothing can have expired yet (the
        # common steady-state case: active origins keep refreshing their entries).
        self._min_born_bound: Optional[int] = None
        self.rounds = 0

    # ------------------------------------------------------------------ hit counting

    def record_shuffle_request(self, sender_is_public: bool) -> None:
        """Count one received shuffle request (Algorithm 2, lines 26–30)."""
        if sender_is_public:
            self._current_public_hits += 1
        else:
            self._current_private_hits += 1

    @property
    def current_round_hits(self) -> Tuple[int, int]:
        """The (public, private) hit counters of the round in progress."""
        return self._current_public_hits, self._current_private_hits

    # ------------------------------------------------------------------ round boundary

    def advance_round(self) -> None:
        """Per-round maintenance (Algorithm 2, lines 3–11).

        Ages and prunes the neighbour estimates, recomputes the local estimate from the
        local history (public nodes), then archives the current round's hit counters
        into the history and resets them.
        """
        self.rounds += 1
        # Ageing is implicit (effective age = rounds - born); only expiry needs work,
        # and only when the oldest entry could actually have crossed the γ horizon.
        horizon = self.rounds - self.gamma
        born_of = self._neighbour_born
        bound = self._min_born_bound
        if bound is not None and bound < horizon:
            expired = [origin_id for origin_id, born in born_of.items() if born < horizon]
            cache = self._neighbour_estimates
            for origin_id in expired:
                del cache[origin_id]
                del born_of[origin_id]
            if expired:
                self._origin_order = list(born_of)
            self._min_born_bound = min(born_of.values()) if born_of else None

        # Archive the completed round's counters (the deque enforces the α window;
        # the round it pushes out leaves the running sums first).
        history = self._history
        if len(history) == self.alpha:
            evicted_public, evicted_private = history[0]
            self._window_public_hits -= evicted_public
            self._window_private_hits -= evicted_private
        public_hits = self._current_public_hits
        private_hits = self._current_private_hits
        history.append((public_hits, private_hits))
        self._window_public_hits += public_hits
        self._window_private_hits += private_hits
        self._current_public_hits = 0
        self._current_private_hits = 0

    def _calc_hits_ratio(self) -> Optional[float]:
        """The paper's ``CalcHitsRatio`` over the last α rounds (plus the current one)."""
        public_count = self._window_public_hits + self._current_public_hits
        private_count = self._window_private_hits + self._current_private_hits
        total = public_count + private_count
        if total == 0:
            return None
        return public_count / total

    # ------------------------------------------------------------------ dissemination

    def local_estimate(self) -> Optional[float]:
        """E_i — the node's own local estimate, or ``None`` for private / cold nodes.

        Always computed over the last α archived rounds plus the round in progress, so
        the value a croupier piggy-backs on a shuffle response already reflects the
        requests it received this round.
        """
        if not self.is_public:
            return None
        return self._calc_hits_ratio()

    def own_estimate_record(self, node_id: int) -> Optional[RatioEstimate]:
        """The node's local estimate packaged for piggy-backing, if it has one."""
        value = self.local_estimate()
        if value is None:
            return None
        return RatioEstimate(origin_id=node_id, value=value, age=0)

    def merge_estimates(self, estimates: Iterable[Optional[RatioEstimate]]) -> int:
        """Merge received estimates into the neighbour cache (keep the freshest per origin).

        ``None`` entries are ignored so callers can pass ``[*subset, sender_estimate]``
        without checking. Estimates the node produced itself are skipped for public
        nodes (their own estimate is added separately by equation 8). Returns the
        number of entries that changed the cache.
        """
        merged = 0
        cache = self._neighbour_estimates
        born_of = self._neighbour_born
        order = self._origin_order
        gamma = self.gamma
        rounds = self.rounds
        bound = self._min_born_bound
        for estimate in estimates:
            if estimate is None:
                continue
            age = estimate.age
            if age > gamma:
                continue
            # Fresher ⇔ smaller effective age ⇔ larger born round.
            born = rounds - age
            origin_id = estimate.origin_id
            existing = born_of.get(origin_id)
            if existing is None:
                order.append(origin_id)
            elif born <= existing:
                continue
            cache[origin_id] = estimate.value
            born_of[origin_id] = born
            merged += 1
            if bound is None or born < bound:
                bound = born
        self._min_born_bound = bound
        return merged

    def estimates_subset(self, rng: random.Random, count: int) -> List[RatioEstimate]:
        """A bounded random subset of the neighbour cache to piggy-back on a message.

        The returned estimates carry the sender-relative age at send time (the wire
        semantics the paper's 5-byte encoding assumes).
        """
        cache = self._neighbour_estimates
        born_of = self._neighbour_born
        order = self._origin_order
        if len(order) > count:
            # Sampling from the persistent order list draws exactly as sampling from
            # a freshly built item list would (the draws depend only on the length),
            # without allocating an O(cache) list per outgoing message.
            chosen = sample(rng, order, count)
        else:
            chosen = order
        rounds = self.rounds
        result = []
        append = result.append
        for origin_id in chosen:
            # RatioEstimate(origin_id, value, rounds - born), without the call.
            estimate = _EstimateFields()
            estimate.origin_id = origin_id
            estimate.value = cache[origin_id]
            estimate.age = rounds - born_of[origin_id]
            estimate.__class__ = RatioEstimate
            append(estimate)
        return result

    # ------------------------------------------------------------------ estimation

    def estimate_ratio(self) -> Optional[float]:
        """The node's best estimate of ω (equations 8 and 9).

        Public nodes average their own local estimate together with the cached
        neighbour estimates; private nodes average only the neighbour estimates.
        Returns ``None`` when the node has no information at all yet.
        """
        cached = list(self._neighbour_estimates.values())
        if self.is_public:
            own = self.local_estimate()
            if own is not None:
                cached = cached + [own]
        if not cached:
            return None
        return sum(cached) / len(cached)

    # ------------------------------------------------------------------ introspection

    @property
    def neighbour_estimate_count(self) -> int:
        return len(self._neighbour_estimates)

    def neighbour_estimates(self) -> List[RatioEstimate]:
        """Snapshot of the cached neighbour estimates (testing/diagnostics)."""
        rounds = self.rounds
        return [
            RatioEstimate(origin_id, value, rounds - self._neighbour_born[origin_id])
            for origin_id, value in self._neighbour_estimates.items()
        ]

    def history_snapshot(self) -> List[Tuple[int, int]]:
        """Snapshot of the archived (cu, cv) history (testing/diagnostics)."""
        return list(self._history)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        estimate = self.estimate_ratio()
        rendered = "n/a" if estimate is None else f"{estimate:.3f}"
        return (
            f"RatioEstimator(α={self.alpha}, γ={self.gamma}, "
            f"{'public' if self.is_public else 'private'}, estimate={rendered})"
        )
