"""The bounded partial view used by every peer-sampling protocol.

Croupier keeps two of these per node (a public view and a private view); the baselines
keep a single one. The class implements the operations the paper's pseudo-code relies
on: ageing, tail (oldest-descriptor) selection, uniform random subsets, and the
``updateView`` merge procedure of Algorithm 2 (lines 46–58), which is the *swapper*
policy of Jelasity et al.: when the view is full, a descriptor we just sent to the peer
is evicted to make room for one the peer sent us.

Lazy-ageing contract
--------------------
Ageing every descriptor each round used to allocate a fresh
:class:`~repro.membership.descriptor.NodeDescriptor` per entry per view per node per
round — the single largest allocation source in a simulation. The view now keeps one
internal round counter (``_clock``) and, per entry, the counter value at which that
descriptor's age was zero (its *born* round, ``born = clock_at_insert - age``).

* :meth:`increase_ages` is O(1): it bumps the clock.
* The *effective* age of an entry is ``_clock - born``; it is materialised into a real
  descriptor object only when an entry crosses the public API (:meth:`get`, iteration,
  :meth:`oldest`, :meth:`random_subset`, …). Materialised objects are cached back into
  the table, so repeated reads at the same clock allocate nothing.
* Descriptors handed in are stored by reference (they are immutable) and descriptors
  handed out are shared, never copied. Wire semantics are preserved: a descriptor
  returned for inclusion in a message carries the sender-relative age at send time.
* :meth:`random_subset` materialises its picks inline, and an excluded id costs a
  filtered id list only when it is actually in the view (mostly it is not: Croupier
  excludes a partner ``on_round`` has already removed).

All selection methods consume randomness exactly as the eager implementation did (same
candidate ordering, same number of draws: :func:`repro.simulator.core.sample` and
:func:`~repro.simulator.core.choice` replicate ``random.Random``'s own), so same-seed
runs are bit-identical with the pre-refactor code.
"""

from __future__ import annotations

import random
from typing import Collection, Dict, Iterator, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.membership.descriptor import NodeDescriptor
from repro.simulator.core import choice, sample


class PartialView:
    """A bounded set of node descriptors, at most one per node identifier."""

    __slots__ = ("capacity", "_entries", "_born", "_clock", "_ids")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"view capacity must be positive, got {capacity}")
        self.capacity = capacity
        #: node_id -> descriptor as last materialised (its ``age`` may lag the clock).
        self._entries: Dict[int, NodeDescriptor] = {}
        #: node_id -> clock value at which this entry's age was zero.
        self._born: Dict[int, int] = {}
        #: The view's local round counter (bumped by :meth:`increase_ages`).
        self._clock: int = 0
        #: Cached key list for random selection; ``None`` when stale.
        self._ids: Optional[List[int]] = None

    # ------------------------------------------------------------------ internals

    def _materialize(self, node_id: int) -> NodeDescriptor:
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

    def _store(self, descriptor: NodeDescriptor) -> None:
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

    def __iter__(self) -> Iterator[NodeDescriptor]:
        return iter(self.descriptors())

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._entries

    @property
    def is_empty(self) -> bool:
        return not self._entries

    def get(self, node_id: int) -> Optional[NodeDescriptor]:
        if node_id not in self._entries:
            return None
        return self._materialize(node_id)

    def descriptors(self) -> List[NodeDescriptor]:
        """A snapshot list of the current descriptors (ages as of the current clock)."""
        return [self._materialize(node_id) for node_id in self._entries]

    def node_ids(self) -> List[int]:
        return list(self._entries)

    # ------------------------------------------------------------------ mutation

    def add(self, descriptor: NodeDescriptor) -> bool:
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

    def remove(self, node_id: int) -> Optional[NodeDescriptor]:
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

    def oldest(self, rng: Optional[random.Random] = None) -> Optional[NodeDescriptor]:
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
            chosen = choice(rng, candidates)
        return self._materialize(chosen)

    def random_descriptor(self, rng: random.Random) -> Optional[NodeDescriptor]:
        """A uniformly random descriptor, or ``None`` if the view is empty."""
        if not self._entries:
            return None
        return self._materialize(choice(rng, self._id_list()))

    def random_subset(
        self,
        rng: random.Random,
        count: int,
        exclude_ids: Optional[Collection[int]] = None,
    ) -> List[NodeDescriptor]:
        """Up to ``count`` distinct descriptors chosen uniformly at random.

        The returned descriptors are shared (immutable) references with their ages
        materialised at the current clock, so they are safe to embed in messages as-is.
        """
        entries = self._entries
        # A fresh id list per call: the view changes between nearly all calls (the
        # cached ``_ids`` list was still valid on under a tenth of them).
        candidates = list(entries)
        if exclude_ids is not None:
            for node_id in exclude_ids:
                if node_id in entries:
                    candidates = [
                        candidate for candidate in entries if candidate not in exclude_ids
                    ]
                    break
        if len(candidates) > count:
            candidates = sample(rng, candidates, count)
        born = self._born
        clock = self._clock
        subset = []
        for node_id in candidates:
            descriptor = entries[node_id]
            age = clock - born[node_id]
            if descriptor.age != age:
                descriptor = entries[node_id] = descriptor.with_age(age)
            subset.append(descriptor)
        return subset

    # ------------------------------------------------------------------ merging

    def update_view(
        self,
        sent: Sequence[NodeDescriptor],
        received: Sequence[NodeDescriptor],
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
        capacity = self.capacity
        # The eviction queue: ids we sent, in order, consumed through one iterator
        # (O(1) per eviction; ``list.pop(0)`` once made the merge quadratic in the
        # batch size). Built eagerly: membership must be tested against the view
        # *before* any received descriptor is merged (a stale sent entry re-added by
        # ``received`` must not become eviction-eligible).
        victims = iter([d.node_id for d in sent if d.node_id in entries])
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
            if len(entries) >= capacity:
                for victim in victims:
                    if victim in entries:
                        break
                else:
                    # Nothing we sent is still present: the received descriptor is
                    # dropped and the view keeps its (bounded) content, as in the paper.
                    continue
                del entries[victim]
                del born[victim]
            entries[node_id] = incoming
            born[node_id] = incoming_born
            self._ids = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PartialView({len(self)}/{self.capacity}: {sorted(self._entries)})"
