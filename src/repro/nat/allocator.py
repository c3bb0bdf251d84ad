"""External port allocation strategies for NAT boxes."""

from __future__ import annotations

import enum
from typing import Optional, Set

from repro.errors import NatError

#: The range of external ports a NAT box hands out (inclusive start, exclusive end).
EPHEMERAL_PORT_RANGE = (1024, 65536)


class AllocationPolicy(enum.Enum):
    """How a NAT chooses the external port for a new mapping."""

    PORT_PRESERVATION = "preserve"
    SEQUENTIAL = "sequential"


class PortAllocator:
    """Hands out unused external ports according to an :class:`AllocationPolicy`."""

    def __init__(self, policy: AllocationPolicy = AllocationPolicy.PORT_PRESERVATION) -> None:
        self.policy = policy
        self._in_use: Set[int] = set()
        self._next_sequential = EPHEMERAL_PORT_RANGE[0]

    def allocate(self, preferred_port: Optional[int] = None) -> int:
        """Allocate an external port.

        With :attr:`AllocationPolicy.PORT_PRESERVATION` the preferred (internal) port is
        used when free, falling back to sequential allocation on collision — which is
        what most consumer NATs do and what keeps descriptor endpoints stable in the
        simulation.
        """
        if self.policy is AllocationPolicy.PORT_PRESERVATION and preferred_port is not None:
            if preferred_port not in self._in_use:
                self._in_use.add(preferred_port)
                return preferred_port
        return self._allocate_sequential()

    def release(self, port: int) -> None:
        """Return a port to the pool (called when a mapping expires)."""
        self._in_use.discard(port)

    @property
    def in_use(self) -> int:
        """Number of currently allocated ports."""
        return len(self._in_use)

    # ------------------------------------------------------------------ internals

    def _allocate_sequential(self) -> int:
        start, end = EPHEMERAL_PORT_RANGE
        for _ in range(end - start):
            candidate = self._next_sequential
            self._next_sequential += 1
            if self._next_sequential >= end:
                self._next_sequential = start
            if candidate not in self._in_use:
                self._in_use.add(candidate)
                return candidate
        raise NatError("NAT port pool exhausted")
