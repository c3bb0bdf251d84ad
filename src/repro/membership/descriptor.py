"""Node descriptors: the unit of information exchanged by every peer-sampling protocol.

The paper (Section VI): "A node descriptor contains the node's address, its NAT type,
and a timestamp storing the number of rounds since the descriptor was created."
Protocol-specific extras (Gozar's relay parents) ride along in :attr:`NodeDescriptor.parents`.

Performance contract
--------------------
Descriptors are **immutable** ``__slots__`` value objects. Immutability is what lets the
rest of the hot path share references instead of defensively copying: a
:class:`~repro.membership.view.PartialView` stores the very descriptor object it was
handed, messages embed the same objects the view returned, and
:meth:`NodeDescriptor.copy` degenerates to returning ``self``. The :attr:`age` field is
the age *at the time this particular object was materialised*; views age their contents
lazily (a single per-view round counter) and materialise a descriptor with the current
age only when one actually crosses an API boundary — see
:class:`~repro.membership.view.PartialView` for the lazy-ageing bookkeeping.

Re-aged copies are the most frequent allocation of a Croupier run. The fields live in
a guard-free base class, so a descriptor (a new one, or a copy from
:meth:`NodeDescriptor.with_age`) is filled in with plain slot stores and only then
given the immutable class; nothing goes through the ``__setattr__`` guard or an
``object.__setattr__`` call per field. A descriptor's encoded size depends only on its
parent count (:mod:`repro.wire`), so nothing is computed per object or cached.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.net.address import NodeAddress


class _DescriptorFields:
    """The slots of a :class:`NodeDescriptor`, without its immutability guard."""

    __slots__ = ("address", "age", "parents", "node_id")


class NodeDescriptor(_DescriptorFields):
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

    __slots__ = ()

    def __new__(
        cls,
        address: NodeAddress,
        age: int = 0,
        parents: Tuple[NodeAddress, ...] = (),
    ) -> "NodeDescriptor":
        descriptor = _DescriptorFields()
        descriptor.address = address
        descriptor.age = age
        descriptor.parents = parents
        # node_id is read on every merge/selection step; a plain slot avoids a
        # property call through the address on each access.
        descriptor.node_id = address.node_id
        descriptor.__class__ = cls
        return descriptor  # type: ignore[return-value]

    # ------------------------------------------------------------------ immutability

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(
            f"NodeDescriptor is immutable; cannot set {name!r} "
            "(use aged()/with_age()/with_parents() to derive a new descriptor)"
        )

    def __delattr__(self, name: str) -> None:
        raise AttributeError("NodeDescriptor is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NodeDescriptor):
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
    def __copy__(self) -> "NodeDescriptor":
        return self

    def __deepcopy__(self, memo: dict) -> "NodeDescriptor":
        return self

    # ------------------------------------------------------------------ identity

    @property
    def is_public(self) -> bool:
        return self.address.is_public

    # ------------------------------------------------------------------ operations

    def copy(self) -> "NodeDescriptor":
        """Return ``self``: descriptors are immutable, so sharing is always safe."""
        return self

    def aged(self, increment: int = 1) -> "NodeDescriptor":
        """A descriptor with the age increased by ``increment``."""
        return NodeDescriptor(self.address, self.age + increment, self.parents)

    def with_age(self, age: int) -> "NodeDescriptor":
        """A descriptor with the age replaced (used by lazy-ageing views)."""
        if age == self.age:
            return self
        # NodeDescriptor(self.address, age, self.parents), without the call.
        clone = _DescriptorFields()
        clone.address = self.address
        clone.age = age
        clone.parents = self.parents
        clone.node_id = self.node_id
        clone.__class__ = NodeDescriptor
        return clone

    def is_fresher_than(self, other: "NodeDescriptor") -> bool:
        """Whether this descriptor carries more recent information than ``other``."""
        return self.age < other.age

    def with_parents(self, parents: Tuple[NodeAddress, ...]) -> "NodeDescriptor":
        """A descriptor with the relay-parent list replaced (Gozar)."""
        return NodeDescriptor(self.address, self.age, parents)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        suffix = f", parents={len(self.parents)}" if self.parents else ""
        nat_type = self.address.nat_type.value
        return f"Descriptor(node={self.node_id}, {nat_type}, age={self.age}{suffix})"


def parent_count(descriptors: Sequence[NodeDescriptor]) -> int:
    """How many relay-parent addresses ``descriptors`` carry in all: the
    ``parents`` count of :func:`repro.wire.shuffle`."""
    return sum([len(descriptor.parents) for descriptor in descriptors])
