"""The directory of public nodes behind the bootstrap service."""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.net.address import NodeAddress
from repro.simulator.core import sample


class BootstrapRegistry:
    """Keeps track of the public nodes a bootstrap server can hand out.

    Only **public** nodes are registered: the whole point of the bootstrap step is to
    give a joining node addresses it can reach without NAT traversal. Private nodes are
    silently ignored by :meth:`register`, so callers can register every node without
    filtering first.
    """

    def __init__(self, rng: Optional[random.Random] = None) -> None:
        self._public_nodes: Dict[int, NodeAddress] = {}
        self.rng = rng or random.Random(0)

    def register(self, address: NodeAddress) -> bool:
        """Add a node to the directory. Returns ``True`` if it was accepted (public)."""
        if not address.is_public:
            return False
        self._public_nodes[address.node_id] = address
        return True

    def unregister(self, node_id: int) -> None:
        """Remove a node (because it left or failed)."""
        self._public_nodes.pop(node_id, None)

    def sample(self, count: int, exclude_id: Optional[int] = None) -> List[NodeAddress]:
        """Return up to ``count`` random public nodes, excluding ``exclude_id``."""
        candidates = [
            address
            for node_id, address in self._public_nodes.items()
            if node_id != exclude_id
        ]
        if len(candidates) <= count:
            return list(candidates)
        return sample(self.rng, candidates, count)

    def all_public(self) -> List[NodeAddress]:
        """Every registered public node (used by NAT-id servers as a node provider)."""
        return list(self._public_nodes.values())

    def __len__(self) -> int:
        return len(self._public_nodes)
