"""Per-node traffic accounting.

Figure 7(a) of the paper reports the *average load per node* in bytes per second,
separately for public and private nodes, for Croupier, Gozar and Nylon. The
:class:`TrafficMonitor` collects exactly the raw material needed for that figure (and
for the per-message-type breakdowns used in tests): every packet sent, received,
dropped by a NAT, or lost in transit is recorded against the node that sent or received
it, together with its wire size.

Experiments that want steady-state numbers take a :meth:`TrafficMonitor.snapshot` at
the start of the measurement window and subtract it from a later snapshot.

``record_sent`` / ``record_received`` run once per packet each, so they take the
size the network already read (:attr:`Packet.size`), read the type name once and
touch each counter once.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.net.address import NodeAddress
from repro.simulator.message import Message


@dataclass
class NodeTraffic:
    """Cumulative traffic counters for a single node."""

    tx_bytes: int = 0
    rx_bytes: int = 0
    tx_messages: int = 0
    rx_messages: int = 0
    tx_by_type: Dict[str, int] = field(default_factory=dict)
    rx_by_type: Dict[str, int] = field(default_factory=dict)

    def copy(self) -> "NodeTraffic":
        clone = NodeTraffic(
            tx_bytes=self.tx_bytes,
            rx_bytes=self.rx_bytes,
            tx_messages=self.tx_messages,
            rx_messages=self.rx_messages,
        )
        clone.tx_by_type = dict(self.tx_by_type)
        clone.rx_by_type = dict(self.rx_by_type)
        return clone

    def minus(self, other: "NodeTraffic") -> "NodeTraffic":
        """Return the traffic accumulated since ``other`` was captured."""
        delta = NodeTraffic(
            tx_bytes=self.tx_bytes - other.tx_bytes,
            rx_bytes=self.rx_bytes - other.rx_bytes,
            tx_messages=self.tx_messages - other.tx_messages,
            rx_messages=self.rx_messages - other.rx_messages,
        )
        delta.tx_by_type = {
            name: count - other.tx_by_type.get(name, 0)
            for name, count in self.tx_by_type.items()
        }
        delta.rx_by_type = {
            name: count - other.rx_by_type.get(name, 0)
            for name, count in self.rx_by_type.items()
        }
        return delta


@dataclass
class TrafficSnapshot:
    """A frozen copy of all per-node counters at a point in virtual time."""

    time_ms: float
    per_node: Dict[int, NodeTraffic]


class TrafficMonitor:
    """Collects traffic statistics for every node in a simulation run."""

    def __init__(self) -> None:
        self._per_node: Dict[int, NodeTraffic] = defaultdict(NodeTraffic)
        self._drops: Dict[str, int] = defaultdict(int)

    # ------------------------------------------------------------------ recording

    def record_sent(self, sender: NodeAddress, message: Message, size: int) -> None:
        node_id = sender.node_id
        name = type(message).__name__
        traffic = self._per_node[node_id]
        traffic.tx_bytes += size
        traffic.tx_messages += 1
        by_type = traffic.tx_by_type
        by_type[name] = by_type.get(name, 0) + size

    def record_received(self, receiver: NodeAddress, message: Message, size: int) -> None:
        node_id = receiver.node_id
        name = type(message).__name__
        traffic = self._per_node[node_id]
        traffic.rx_bytes += size
        traffic.rx_messages += 1
        by_type = traffic.rx_by_type
        by_type[name] = by_type.get(name, 0) + size

    def record_drop(self, reason: str) -> None:
        """Record a packet that never reached a node (NAT filtered, lost, dead host)."""
        self._drops[reason] += 1

    # ------------------------------------------------------------------ queries

    def node_traffic(self, node_id: int) -> NodeTraffic:
        """Cumulative traffic for one node (zeros if the node never communicated)."""
        return self._per_node.get(node_id, NodeTraffic())

    @property
    def drop_reasons(self) -> Dict[str, int]:
        return dict(self._drops)

    def snapshot(self, time_ms: float) -> TrafficSnapshot:
        """Capture a copy of all counters, for windowed (steady-state) measurements."""
        return TrafficSnapshot(
            time_ms=time_ms,
            per_node={node_id: t.copy() for node_id, t in self._per_node.items()},
        )

    def average_load_bps(
        self,
        since: TrafficSnapshot,
        now_ms: float,
        node_filter: Optional[Callable[[int], bool]] = None,
        include_rx: bool = True,
        include_tx: bool = True,
    ) -> float:
        """Average per-node load in bytes/second over the window ``[since, now]``.

        Parameters
        ----------
        since:
            The snapshot taken at the start of the measurement window.
        now_ms:
            Current virtual time in milliseconds.
        node_filter:
            Restrict the average to nodes for which the predicate returns ``True``
            (e.g. only public nodes). Nodes with no recorded traffic in the window are
            still counted in the denominator if they appear in the snapshot.
        """
        window_seconds = (now_ms - since.time_ms) / 1000.0
        if window_seconds <= 0:
            return 0.0
        node_ids = set(self._per_node) | set(since.per_node)
        if node_filter is not None:
            node_ids = {node_id for node_id in node_ids if node_filter(node_id)}
        if not node_ids:
            return 0.0
        total = 0.0
        for node_id in node_ids:
            current = self._per_node.get(node_id, NodeTraffic())
            baseline = since.per_node.get(node_id, NodeTraffic())
            delta = current.minus(baseline)
            if include_tx:
                total += delta.tx_bytes
            if include_rx:
                total += delta.rx_bytes
        return total / window_seconds / len(node_ids)
