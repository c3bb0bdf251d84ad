"""Reference Croupier state: descriptors, views and the ratio estimator as they were
before their hot paths lost their per-draw and per-descriptor Python overhead.

This is the ``NodeDescriptor`` / ``PartialView`` / ``RatioEstimate`` /
``RatioEstimator`` code of commit 239e6a8, moved here verbatim (only the class
names gained a ``Reference`` prefix): selection goes through ``random.Random``'s
own ``sample`` / ``choice``, ``random_subset`` builds an exclusion set on every
call, the local estimate re-sums the whole α-window and estimates are frozen
dataclasses. It is slow on purpose and has no shortcut that could be wrong, which
is what makes it the oracle ``tests/test_croupier_oracle.py`` drives the
production classes against. It carries no wire sizes: those are ``repro.wire``'s,
pinned by ``tests/test_wire.py``.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.net.address import NatType, NodeAddress

_set_slot = object.__setattr__


class ReferenceNodeDescriptor:
    """A (possibly stale) claim that a node exists and can be contacted.

    Attributes
    ----------
    address:
        The node's :class:`~repro.net.address.NodeAddress` (which carries its NAT type).
    age:
        Number of gossip rounds since the descriptor was created by the node itself,
        as of the moment this object was materialised. Freshly self-created descriptors
        have age 0. Views do **not** rewrite this field each round; they track ageing
        lazily and hand out re-materialised descriptors on access.
    parents:
        Gozar only: the public relay nodes through which the (private) subject of this
        descriptor can be reached. Empty for every other protocol.
    """

    __slots__ = ("address", "age", "parents", "node_id")

    def __init__(
        self,
        address: NodeAddress,
        age: int = 0,
        parents: Tuple[NodeAddress, ...] = (),
    ) -> None:
        _set_slot(self, "address", address)
        _set_slot(self, "age", age)
        _set_slot(self, "parents", parents)
        # node_id is read on every merge/selection step; a plain slot avoids a
        # property call through the address on each access.
        _set_slot(self, "node_id", address.node_id)

    # ------------------------------------------------------------------ immutability

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(
            f"ReferenceNodeDescriptor is immutable; cannot set {name!r} "
            "(use aged()/with_age()/with_parents() to derive a new descriptor)"
        )

    def __delattr__(self, name: str) -> None:
        raise AttributeError("ReferenceNodeDescriptor is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReferenceNodeDescriptor):
            return NotImplemented
        return (
            self.address == other.address
            and self.age == other.age
            and self.parents == other.parents
        )

    # Match the previous (non-frozen dataclass) behaviour: descriptors defined
    # equality but were never hashable — node ids key every table instead.
    __hash__ = None  # type: ignore[assignment]

    # Descriptors are immutable all the way down (address and parents are frozen),
    # so copying — including the deep copy a Scenario.clone() performs — can share
    # the object, exactly like copy() does.
    def __copy__(self) -> "ReferenceNodeDescriptor":
        return self

    def __deepcopy__(self, memo: dict) -> "ReferenceNodeDescriptor":
        return self

    # ------------------------------------------------------------------ identity

    @property
    def nat_type(self) -> NatType:
        return self.address.nat_type

    @property
    def is_public(self) -> bool:
        return self.address.is_public

    @property
    def is_private(self) -> bool:
        return self.address.is_private

    # ------------------------------------------------------------------ operations

    def copy(self) -> "ReferenceNodeDescriptor":
        """Return ``self``: descriptors are immutable, so sharing is always safe."""
        return self

    def aged(self, increment: int = 1) -> "ReferenceNodeDescriptor":
        """A descriptor with the age increased by ``increment``."""
        return ReferenceNodeDescriptor(self.address, self.age + increment, self.parents)

    def with_age(self, age: int) -> "ReferenceNodeDescriptor":
        """A descriptor with the age replaced (used by lazy-ageing views)."""
        if age == self.age:
            return self
        return ReferenceNodeDescriptor(self.address, age, self.parents)

    def is_fresher_than(self, other: "ReferenceNodeDescriptor") -> bool:
        """Whether this descriptor carries more recent information than ``other``."""
        return self.age < other.age

    def with_parents(self, parents: Tuple[NodeAddress, ...]) -> "ReferenceNodeDescriptor":
        """A descriptor with the relay-parent list replaced (Gozar)."""
        return ReferenceNodeDescriptor(self.address, self.age, parents)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        suffix = f", parents={len(self.parents)}" if self.parents else ""
        return f"Descriptor(node={self.node_id}, {self.nat_type.value}, age={self.age}{suffix})"


class ReferencePartialView:
    """A bounded set of node descriptors, at most one per node identifier."""

    __slots__ = ("capacity", "_entries", "_born", "_clock", "_ids")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"view capacity must be positive, got {capacity}")
        self.capacity = capacity
        #: node_id -> descriptor as last materialised (its ``age`` may lag the clock).
        self._entries: Dict[int, ReferenceNodeDescriptor] = {}
        #: node_id -> clock value at which this entry's age was zero.
        self._born: Dict[int, int] = {}
        #: The view's local round counter (bumped by :meth:`increase_ages`).
        self._clock: int = 0
        #: Cached key list for random selection; ``None`` when stale.
        self._ids: Optional[List[int]] = None

    # ------------------------------------------------------------------ internals

    def _materialize(self, node_id: int) -> ReferenceNodeDescriptor:
        """The entry for ``node_id`` with its age brought up to the current clock."""
        descriptor = self._entries[node_id]
        age = self._clock - self._born[node_id]
        if descriptor.age != age:
            descriptor = descriptor.with_age(age)
            self._entries[node_id] = descriptor
        return descriptor

    def _id_list(self) -> List[int]:
        ids = self._ids
        if ids is None:
            ids = self._ids = list(self._entries)
        return ids

    def _store(self, descriptor: ReferenceNodeDescriptor) -> None:
        """Insert a descriptor (caller has checked capacity / freshness)."""
        node_id = descriptor.node_id
        if node_id not in self._entries:
            self._ids = None
        self._entries[node_id] = descriptor
        self._born[node_id] = self._clock - descriptor.age

    def _discard(self, node_id: int) -> None:
        del self._entries[node_id]
        del self._born[node_id]
        self._ids = None

    # ------------------------------------------------------------------ container API

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[ReferenceNodeDescriptor]:
        return iter(self.descriptors())

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._entries

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.capacity

    @property
    def is_empty(self) -> bool:
        return not self._entries

    @property
    def free_slots(self) -> int:
        return max(0, self.capacity - len(self._entries))

    @property
    def round_clock(self) -> int:
        """The view's internal round counter (diagnostics/benchmarks)."""
        return self._clock

    def get(self, node_id: int) -> Optional[ReferenceNodeDescriptor]:
        if node_id not in self._entries:
            return None
        return self._materialize(node_id)

    def age_of(self, node_id: int) -> Optional[int]:
        """The effective age of an entry without materialising a descriptor."""
        born = self._born.get(node_id)
        if born is None:
            return None
        return self._clock - born

    def descriptors(self) -> List[ReferenceNodeDescriptor]:
        """A snapshot list of the current descriptors (ages as of the current clock)."""
        return [self._materialize(node_id) for node_id in self._entries]

    def node_ids(self) -> List[int]:
        return list(self._entries)

    # ------------------------------------------------------------------ mutation

    def add(self, descriptor: ReferenceNodeDescriptor) -> bool:
        """Insert or refresh a descriptor if there is room (or it is already present).

        Returns ``True`` if the view now contains the descriptor's node. Existing
        entries are replaced only by fresher (younger) descriptors, matching the
        paper's ``updateView`` first branch.
        """
        node_id = descriptor.node_id
        existing_born = self._born.get(node_id)
        if existing_born is not None:
            # Fresher ⇔ smaller effective age ⇔ larger born round.
            if self._clock - descriptor.age > existing_born:
                self._store(descriptor)
            return True
        if len(self._entries) >= self.capacity:
            return False
        self._store(descriptor)
        return True

    def remove(self, node_id: int) -> Optional[ReferenceNodeDescriptor]:
        """Remove and return the descriptor for ``node_id`` (or ``None``)."""
        if node_id not in self._entries:
            return None
        descriptor = self._materialize(node_id)
        self._discard(node_id)
        return descriptor

    def clear(self) -> None:
        self._entries.clear()
        self._born.clear()
        self._ids = None

    def increase_ages(self, increment: int = 1) -> None:
        """Age every descriptor by ``increment`` rounds (start of each gossip round).

        O(1): only the view's round counter moves; no descriptor is touched until it
        is next read through the API.
        """
        self._clock += increment

    # ------------------------------------------------------------------ selection

    def oldest(self, rng: Optional[random.Random] = None) -> Optional[ReferenceNodeDescriptor]:
        """The descriptor with the highest age (the *tail* policy), or ``None`` if empty.

        Age ties are common (ages are small integers), so the tie-break matters: when an
        ``rng`` is provided, a uniformly random descriptor among the oldest ones is
        returned. A deterministic tie-break (highest node id) would concentrate shuffle
        requests on a few nodes and bias both the load distribution and Croupier's
        ratio estimator, which assumes shuffle targets are chosen uniformly at random.
        Without an ``rng`` the deterministic tie-break is used (handy in tests).
        """
        born = self._born
        if not born:
            return None
        # Highest effective age == smallest born round; one pass over plain ints.
        min_born = min(born.values())
        candidates = [node_id for node_id, b in born.items() if b == min_born]
        if rng is None or len(candidates) == 1:
            chosen = max(candidates)
        else:
            chosen = rng.choice(candidates)
        return self._materialize(chosen)

    def random_descriptor(self, rng: random.Random) -> Optional[ReferenceNodeDescriptor]:
        """A uniformly random descriptor, or ``None`` if the view is empty."""
        if not self._entries:
            return None
        return self._materialize(rng.choice(self._id_list()))

    def random_subset(
        self,
        rng: random.Random,
        count: int,
        exclude_ids: Optional[Iterable[int]] = None,
    ) -> List[ReferenceNodeDescriptor]:
        """Up to ``count`` distinct descriptors chosen uniformly at random.

        The returned descriptors are shared (immutable) references with their ages
        materialised at the current clock, so they are safe to embed in messages as-is.
        """
        if exclude_ids is not None:
            excluded = set(exclude_ids)
            candidates = [nid for nid in self._entries if nid not in excluded]
        else:
            candidates = self._id_list()
        if len(candidates) <= count:
            chosen: Sequence[int] = candidates
        else:
            chosen = rng.sample(candidates, count)
        return [self._materialize(node_id) for node_id in chosen]

    # ------------------------------------------------------------------ merging

    def update_view(
        self,
        sent: Sequence[ReferenceNodeDescriptor],
        received: Sequence[ReferenceNodeDescriptor],
        self_id: int,
    ) -> None:
        """The paper's ``updateView`` procedure (Algorithm 2, lines 46–58).

        For every received descriptor: refresh it if already present; otherwise add it
        if there is free space; otherwise evict one of the descriptors *we sent to the
        peer* (the swapper policy — the information is not lost, the peer now holds it)
        and insert the received one. Descriptors describing ourselves are skipped.
        """
        entries = self._entries
        born = self._born
        clock = self._clock
        # A deque keeps the eviction queue O(1) per pop; with large shuffle batches the
        # previous ``list.pop(0)`` made the merge quadratic in the batch size. Built
        # eagerly: membership must be tested against the view *before* any received
        # descriptor is merged (a stale sent entry re-added by ``received`` must not
        # become eviction-eligible).
        sent_queue = deque(d for d in sent if d.node_id in entries)
        for incoming in received:
            node_id = incoming.node_id
            if node_id == self_id:
                continue
            incoming_born = clock - incoming.age
            existing_born = born.get(node_id)
            if existing_born is not None:
                if incoming_born > existing_born:
                    entries[node_id] = incoming
                    born[node_id] = incoming_born
                continue
            if len(entries) < self.capacity:
                entries[node_id] = incoming
                born[node_id] = incoming_born
                self._ids = None
                continue
            evicted = False
            while sent_queue:
                candidate = sent_queue.popleft()
                if candidate.node_id in entries:
                    del entries[candidate.node_id]
                    del born[candidate.node_id]
                    evicted = True
                    break
            if evicted:
                entries[node_id] = incoming
                born[node_id] = incoming_born
                self._ids = None
            # If nothing we sent is still present, the received descriptor is dropped —
            # the view keeps its (bounded) current content, as in the paper.

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ReferencePartialView({len(self)}/{self.capacity}: {sorted(self._entries)})"


@dataclass(frozen=True, slots=True)
class ReferenceRatioEstimate:
    """One public node's local estimate, as disseminated on shuffle messages.

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

    origin_id: int
    value: float
    age: int = 0

    def aged(self, increment: int = 1) -> "ReferenceRatioEstimate":
        return ReferenceRatioEstimate(self.origin_id, self.value, self.age + increment)

    def is_fresher_than(self, other: "ReferenceRatioEstimate") -> bool:
        return self.age < other.age


class ReferenceRatioEstimator:
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
        # Per-round (cu, cv) pairs for the last α completed rounds.
        self._history: Deque[Tuple[int, int]] = deque(maxlen=alpha)
        # Hit counters for the round currently in progress.
        self._current_public_hits = 0
        self._current_private_hits = 0
        # Neighbour estimates M_i keyed by origin node id, stored lazily as
        # (value, born) where ``born = rounds_at_merge - wire_age``. The effective age
        # of an entry is ``self.rounds - born``, so ageing the whole cache each round
        # is free — no per-entry ReferenceRatioEstimate reallocation. Wire-format
        # :class:`ReferenceRatioEstimate` objects are materialised only when estimates leave
        # through :meth:`estimates_subset` / :meth:`neighbour_estimates`.
        self._neighbour_estimates: Dict[int, Tuple[float, int]] = {}
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
        cache = self._neighbour_estimates
        bound = self._min_born_bound
        if bound is not None and bound < horizon:
            expired = [origin_id for origin_id, (_, born) in cache.items() if born < horizon]
            for origin_id in expired:
                del cache[origin_id]
            if expired:
                self._origin_order = list(cache)
            self._min_born_bound = (
                min(born for _, born in cache.values()) if cache else None
            )

        # Archive the completed round's counters (the deque enforces the α window).
        self._history.append((self._current_public_hits, self._current_private_hits))
        self._current_public_hits = 0
        self._current_private_hits = 0

    def _calc_hits_ratio(self) -> Optional[float]:
        """The paper's ``CalcHitsRatio`` over the last α rounds (plus the current one)."""
        public_count = self._current_public_hits
        private_count = self._current_private_hits
        for cu, cv in self._history:
            public_count += cu
            private_count += cv
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

    def own_estimate_record(self, node_id: int) -> Optional[ReferenceRatioEstimate]:
        """The node's local estimate packaged for piggy-backing, if it has one."""
        value = self.local_estimate()
        if value is None:
            return None
        return ReferenceRatioEstimate(origin_id=node_id, value=value, age=0)

    def merge_estimates(self, estimates: Iterable[Optional[ReferenceRatioEstimate]]) -> int:
        """Merge received estimates into the neighbour cache (keep the freshest per origin).

        ``None`` entries are ignored so callers can pass ``[*subset, sender_estimate]``
        without checking. Estimates the node produced itself are skipped for public
        nodes (their own estimate is added separately by equation 8). Returns the
        number of entries that changed the cache.
        """
        merged = 0
        cache = self._neighbour_estimates
        rounds = self.rounds
        for estimate in estimates:
            if estimate is None:
                continue
            if estimate.age > self.gamma:
                continue
            # Fresher ⇔ smaller effective age ⇔ larger born round.
            born = rounds - estimate.age
            existing = cache.get(estimate.origin_id)
            if existing is None or born > existing[1]:
                if existing is None:
                    self._origin_order.append(estimate.origin_id)
                cache[estimate.origin_id] = (estimate.value, born)
                merged += 1
                bound = self._min_born_bound
                if bound is None or born < bound:
                    self._min_born_bound = born
        return merged

    def estimates_subset(self, rng: random.Random, count: int) -> List[ReferenceRatioEstimate]:
        """A bounded random subset of the neighbour cache to piggy-back on a message.

        The returned estimates carry the sender-relative age at send time (the wire
        semantics the paper's 5-byte encoding assumes).
        """
        cache = self._neighbour_estimates
        order = self._origin_order
        if len(order) > count:
            # Sampling from the persistent order list draws exactly as sampling from
            # a freshly built item list would (the draws depend only on the length),
            # without allocating an O(cache) list per outgoing message.
            chosen = rng.sample(order, count)
        else:
            chosen = order
        rounds = self.rounds
        result = []
        for origin_id in chosen:
            value, born = cache[origin_id]
            result.append(ReferenceRatioEstimate(origin_id, value, rounds - born))
        return result

    # ------------------------------------------------------------------ estimation

    def estimate_ratio(self) -> Optional[float]:
        """The node's best estimate of ω (equations 8 and 9).

        Public nodes average their own local estimate together with the cached
        neighbour estimates; private nodes average only the neighbour estimates.
        Returns ``None`` when the node has no information at all yet.
        """
        cached = [value for value, _born in self._neighbour_estimates.values()]
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

    def neighbour_estimates(self) -> List[ReferenceRatioEstimate]:
        """Snapshot of the cached neighbour estimates (testing/diagnostics)."""
        rounds = self.rounds
        return [
            ReferenceRatioEstimate(origin_id, value, rounds - born)
            for origin_id, (value, born) in self._neighbour_estimates.items()
        ]

    def history_snapshot(self) -> List[Tuple[int, int]]:
        """Snapshot of the archived (cu, cv) history (testing/diagnostics)."""
        return list(self._history)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        estimate = self.estimate_ratio()
        rendered = "n/a" if estimate is None else f"{estimate:.3f}"
        return (
            f"ReferenceRatioEstimator(α={self.alpha}, γ={self.gamma}, "
            f"{'public' if self.is_public else 'private'}, estimate={rendered})"
        )
