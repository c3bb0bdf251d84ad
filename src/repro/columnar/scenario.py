"""Scenario facade over the columnar engine: the object `Scenario` API, column-backed.

:class:`ColumnarScenario` exposes the exact surface the experiment layers consume —
``populate``/``add_node``/``run_rounds``, the protocol plugin, churn/failure helpers,
``overlay_graph``, a network with ``loss_model``/``partition``/``packets_sent``, a
traffic monitor with windowed per-class load queries — but every per-node fact lives
in :class:`~repro.columnar.engine.ColumnarEngine` columns. Node handles and
per-node services are *views*: tiny facade objects constructed on demand
(when a probe or workload event asks), never stored. A 10⁶-node populated scenario
is therefore a handful of flat arrays, not 10⁶ component objects.

It owns a real :class:`~repro.simulator.core.Simulator`, so workload timelines,
Poisson join processes, churn processes and the deterministic RNG derivation tree
all work unmodified; the engine contributes one self-rescheduling simulator event
that executes a whole gossip round at every exact round boundary.

Fidelity deltas vs the object backend are documented in docs/columnar_backend.md
(round-synchronous delivery, ring estimator cache, truncated estimate forwarding);
``identify_nat_types`` and ``selection=RANDOM`` are refused here.
"""

from __future__ import annotations

import copy
import math
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Set

from repro.columnar.engine import ColumnarEngine
from repro.constants import DEFAULT_ROUND_MS
from repro.errors import ConfigurationError, ExperimentError
from repro.membership.plugin import ProtocolPlugin, get_plugin
from repro.membership.policies import SelectionPolicy
from repro.nat.types import profile_name
from repro.net.address import Endpoint, NatType, NodeAddress
from repro.simulator.core import Simulator


def _ip_of_row(row: int) -> str:
    """A unique, reversible wire IP per node row: the row's 24 bits as the last
    three octets, unique because the engine keeps every row below
    :data:`~repro.columnar.engine.ROW_LIMIT` (2**24)."""
    return f"10.{(row >> 16) & 255}.{(row >> 8) & 255}.{row & 255}"


def _row_of_ip(ip: str) -> int:
    parts = ip.split(".")
    return (int(parts[1]) << 16) | (int(parts[2]) << 8) | int(parts[3])


class ColumnarOverlay(Mapping[int, Set[int]]):
    """``{live row: set of live neighbour rows}`` read from the view columns.

    The same contract as the object scenario's ``overlay_graph()`` dict — live
    rows only, in ascending order, no self-loops, no edges to dead rows — but
    each neighbour set is built when it is asked for, so a 10⁵-node graph
    metric never holds 10⁵ sets at once. It reads the columns on every access:
    it follows the engine as it runs. Callers that need a snapshot, or random
    access many times over, copy it with
    :func:`~repro.metrics.graph.build_overlay_graph`.
    """

    __slots__ = ("_engine",)

    def __init__(self, engine: ColumnarEngine) -> None:
        self._engine = engine

    def __getitem__(self, row) -> Set[int]:
        engine = self._engine
        try:
            live = 0 < row < engine.rows and engine.alive[row]
        except TypeError:
            live = False
        if not live:
            raise KeyError(row)
        alive = engine.alive
        return {nid for nid in engine.view_ids(row) if nid != row and alive[nid]}

    def __iter__(self) -> Iterator[int]:
        return iter(self._engine.live_rows())

    def __len__(self) -> int:
        return self._engine.live_count()


class ColumnarService:
    """Per-node service view (built on demand; holds no per-node state)."""

    __slots__ = ("_scenario", "row", "current_round")

    def __init__(self, scenario: "ColumnarScenario", row: int) -> None:
        self._scenario = scenario
        self.row = row
        self.current_round = scenario.engine.rounds_exec[row]

    @property
    def node_id(self) -> int:
        return self.row

    def sample(self) -> Optional[NodeAddress]:
        ids = self._scenario.engine.view_ids(self.row)
        if not ids:
            return None
        choice = self._scenario._sample_rng.choice(ids)
        return self._scenario._address_of(choice)

    def sample_many(self, count: int) -> List[NodeAddress]:
        ids = self._scenario.engine.view_ids(self.row)
        if not ids:
            return []
        rng = self._scenario._sample_rng
        return [self._scenario._address_of(rng.choice(ids)) for _ in range(count)]

    def neighbor_addresses(self) -> List[NodeAddress]:
        address_of = self._scenario._address_of
        return [address_of(nid) for nid in self._scenario.engine.view_ids(self.row)]

    def estimated_ratio(self) -> Optional[float]:
        """This node's ω̂ (``None`` unless the protocol's strategy estimates it)."""
        return self._scenario.engine.estimate_ratio(self.row)


class ColumnarHandle:
    """Node-handle view matching the fields workload events and probes touch."""

    __slots__ = ("_scenario", "node_id")

    #: Columnar nodes carry no NAT box object; their wire IP encodes the row, so
    #: partition events (which key on wire IPs) decode back to rows arithmetically.
    natbox = None
    natid_client = None

    def __init__(self, scenario: "ColumnarScenario", node_id: int) -> None:
        self._scenario = scenario
        self.node_id = node_id

    @property
    def alive(self) -> bool:
        return bool(self._scenario.engine.alive[self.node_id])

    @property
    def is_public(self) -> bool:
        return bool(self._scenario.engine.is_public[self.node_id])

    @property
    def joined_at_ms(self) -> float:
        return self._scenario.engine.joined_ms[self.node_id]

    @property
    def nat_profile_name(self) -> Optional[str]:
        label = self._scenario._nat_labels[self._scenario.engine.nat_class[self.node_id]]
        return None if label == "public" else label

    @property
    def address(self) -> NodeAddress:
        return self._scenario._address_of(self.node_id)

    @property
    def pss(self):
        return ColumnarService(self._scenario, self.node_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ColumnarHandle(node_id={self.node_id}, alive={self.alive})"


class ColumnarTrafficSnapshot:
    """Frozen per-node byte counters (flat copies, not per-node objects)."""

    __slots__ = ("time_ms", "tx", "rx")

    def __init__(self, time_ms: float, tx, rx) -> None:
        self.time_ms = time_ms
        self.tx = tx
        self.rx = rx

    def tx_of(self, row: int) -> int:
        return self.tx[row] if row < len(self.tx) else 0

    def rx_of(self, row: int) -> int:
        return self.rx[row] if row < len(self.rx) else 0


class ColumnarTrafficMonitor:
    """Windowed per-class load queries over the engine's byte columns.

    Implements the :class:`~repro.simulator.monitor.TrafficMonitor` query surface
    the overhead metrics use (``snapshot`` / ``average_load_bps`` /
    ``average_load_by_nat_type``) with identical window semantics: a node counts
    toward the per-node average if it has any recorded traffic now or in the
    baseline snapshot.
    """

    def __init__(self, engine: ColumnarEngine) -> None:
        self._engine = engine

    def snapshot(self, time_ms: float) -> ColumnarTrafficSnapshot:
        rows = self._engine.rows
        return ColumnarTrafficSnapshot(
            time_ms,
            self._engine.tx_bytes[:rows],
            self._engine.rx_bytes[:rows],
        )

    def average_load_bps(
        self,
        since: ColumnarTrafficSnapshot,
        now_ms: float,
        node_filter: Optional[Callable[[int], bool]] = None,
        include_rx: bool = True,
        include_tx: bool = True,
    ) -> float:
        window_seconds = (now_ms - since.time_ms) / 1000.0
        if window_seconds <= 0:
            return 0.0
        tx, rx = self._engine.tx_bytes, self._engine.rx_bytes
        total = 0.0
        count = 0
        for row in range(1, self._engine.rows):
            base_tx = since.tx_of(row)
            base_rx = since.rx_of(row)
            if not (tx[row] or rx[row] or base_tx or base_rx):
                continue
            if node_filter is not None and not node_filter(row):
                continue
            count += 1
            if include_tx:
                total += tx[row] - base_tx
            if include_rx:
                total += rx[row] - base_rx
        if count == 0:
            return 0.0
        return total / window_seconds / count

    def average_load_by_nat_type(
        self,
        since: ColumnarTrafficSnapshot,
        now_ms: float,
        public_node_ids,
        private_node_ids,
    ) -> Dict[str, float]:
        public_set = set(public_node_ids)
        private_set = set(private_node_ids)
        return {
            "public": self.average_load_bps(
                since, now_ms, node_filter=lambda node_id: node_id in public_set
            ),
            "private": self.average_load_bps(
                since, now_ms, node_filter=lambda node_id: node_id in private_set
            ),
        }

    @property
    def drop_reasons(self) -> Dict[str, int]:
        return dict(self._engine.drops)


class ColumnarNetwork:
    """Network facade: packet counter plus the loss/partition control points the
    workload events (:class:`LossBurst`, :class:`Partition`) drive."""

    def __init__(self, scenario: "ColumnarScenario", loss_model) -> None:
        self._scenario = scenario
        self._loss_model = None
        self._partition = None
        self.loss_model = loss_model

    @property
    def packets_sent(self) -> int:
        return self._scenario.engine.packets_sent

    @property
    def loss_model(self):
        return self._loss_model

    @loss_model.setter
    def loss_model(self, model) -> None:
        self._loss_model = model
        if model is None:
            public = private = 0.0
        elif hasattr(model, "public_probability"):
            public = model.public_probability
            private = model.private_probability
        elif hasattr(model, "probability"):
            public = private = model.probability
        else:
            public = private = 0.0
        self._scenario.engine.configure_loss(public, private)

    @property
    def partition(self):
        return self._partition

    @partition.setter
    def partition(self, value) -> None:
        self._partition = value
        if value is None:
            self._scenario.engine.set_partition(())
        else:
            self._scenario.engine.set_partition(
                _row_of_ip(ip) for ip in value.isolated
            )


class ColumnarScenario:
    """A complete column-backed deployment of one peer-sampling protocol."""

    def __init__(self, config) -> None:
        config.validate()
        if config.engine != "columnar":
            raise ConfigurationError(
                f"ColumnarScenario executes engine='columnar' configs; build "
                f"engine={config.engine!r} scenarios through create_scenario()"
            )
        if config.identify_nat_types:
            raise ConfigurationError(
                "engine='columnar' does not support identify_nat_types "
                "(Algorithm 1 needs per-message NAT traversal)"
            )
        self.config = config
        self.sim = Simulator(seed=config.seed)
        self.rng = self.sim.derive_rng("scenario")
        self._sample_rng = self.sim.derive_rng("columnar-sample")
        self.plugin: ProtocolPlugin = get_plugin(config.protocol)
        self._pss_config = config.pss_config or self.plugin.default_config()
        self._pss_config.validate()
        if self._pss_config.selection is not SelectionPolicy.TAIL:
            raise ConfigurationError(
                f"engine='columnar' runs tail partner selection only; "
                f"selection={self._pss_config.selection.value!r} runs only on "
                f"engine='object'"
            )
        self._nat_mixture_rng = (
            self.sim.derive_rng("nat-mixture") if config.nat_mixture is not None else None
        )
        self._fixed_profile_name = profile_name(config.nat_profile)
        self.engine = ColumnarEngine(
            config.protocol,
            view_size=self._pss_config.view_size,
            shuffle_size=self._pss_config.shuffle_size,
            rng=self.sim.derive_rng("columnar-engine"),
            history_alpha=getattr(self._pss_config, "local_history_alpha", 25),
            history_gamma=getattr(self._pss_config, "neighbour_history_gamma", 50),
            parent_count=getattr(self._pss_config, "parent_count", 3),
            parent_keepalive_every_rounds=getattr(
                self._pss_config, "parent_keepalive_every_rounds", 5
            ),
            keepalive_fanout=getattr(self._pss_config, "keepalive_fanout", 20),
            bootstrap_seed_size=self.bootstrap_seed_size,
        )
        self.monitor = ColumnarTrafficMonitor(self.engine)
        loss = None
        if config.loss_rate > 0.0:
            from repro.simulator.loss import BernoulliLoss

            loss = BernoulliLoss(config.loss_rate)
        self.network = ColumnarNetwork(self, loss)
        #: NAT-class label table; engine rows store indexes into it.
        self._nat_labels: List[str] = ["public"]
        self._nat_label_index: Dict[str, int] = {"public": 0}
        self._rounds_scheduled = 0
        self.sim.schedule_at(self.round_ms, self._engine_round)

    # ------------------------------------------------------------------ round pump

    def _engine_round(self) -> None:
        """One simulator event per gossip round, at exact k·round_ms boundaries."""
        self.engine.run_round()
        self._rounds_scheduled += 1
        self.sim.schedule_at(
            (self._rounds_scheduled + 1) * self.round_ms, self._engine_round
        )

    # ------------------------------------------------------------------ properties

    @property
    def round_ms(self) -> float:
        return getattr(self._pss_config, "round_ms", DEFAULT_ROUND_MS)

    @property
    def now(self) -> float:
        return self.sim.now

    @property
    def bootstrap_seed_size(self) -> int:
        if self.config.bootstrap_seed_size is not None:
            return self.config.bootstrap_seed_size
        return getattr(self._pss_config, "view_size", 10)

    # ------------------------------------------------------------------ node creation

    def _label_index(self, label: str) -> int:
        index = self._nat_label_index.get(label)
        if index is None:
            index = len(self._nat_labels)
            self._nat_labels.append(label)
            self._nat_label_index[label] = index
        return index

    def _gateway_profile(self) -> tuple:
        if self.config.nat_mixture is not None:
            return self.config.nat_mixture.sample(self._nat_mixture_rng)
        return self._fixed_profile_name, self.config.nat_profile

    def add_node(self, public: bool) -> ColumnarHandle:
        if public:
            return self.add_public_node()
        return self.add_private_node()

    def add_public_node(self) -> ColumnarHandle:
        row = self.engine.add_node(True, now_ms=self.sim.now, nat_class=0)
        return ColumnarHandle(self, row)

    def add_private_node(self) -> ColumnarHandle:
        use_upnp = (
            self.config.upnp_fraction > 0.0
            and self.rng.random() < self.config.upnp_fraction
        )
        gateway_profile_name, _profile = self._gateway_profile()
        label = "upnp" if use_upnp else gateway_profile_name
        row = self.engine.add_node(
            use_upnp, now_ms=self.sim.now, nat_class=self._label_index(label)
        )
        return ColumnarHandle(self, row)

    def populate(self, n_public: int, n_private: int) -> None:
        """Same creation order as the object scenario: a bootstrap core of public
        nodes first, then the remaining classes shuffled together."""
        if n_public < 0 or n_private < 0:
            raise ExperimentError("node counts must be non-negative")
        self.engine.reserve(n_public + n_private + 1)
        initial_public = min(n_public, max(1, self.bootstrap_seed_size))
        for _ in range(initial_public):
            self.add_public_node()
        remaining = [True] * (n_public - initial_public) + [False] * n_private
        self.rng.shuffle(remaining)
        for is_public in remaining:
            self.add_node(is_public)

    # ------------------------------------------------------------------ running

    def run_ms(self, duration_ms: float) -> None:
        self.sim.run_for(duration_ms)

    def run_rounds(self, rounds: float) -> None:
        self.run_ms(rounds * self.round_ms)

    # ------------------------------------------------------------------ queries

    def _address_of(self, row: int) -> NodeAddress:
        nat_type = NatType.PUBLIC if self.engine.is_public[row] else NatType.PRIVATE
        return NodeAddress(
            node_id=row,
            endpoint=Endpoint(_ip_of_row(row), self._pss_config.port),
            nat_type=nat_type,
        )

    def live_handles(self) -> List[ColumnarHandle]:
        return [ColumnarHandle(self, row) for row in self.engine.live_rows()]

    def live_public_ids(self) -> List[int]:
        return self.engine.live_public_rows()

    def live_private_ids(self) -> List[int]:
        return self.engine.live_private_rows()

    def live_count(self) -> int:
        return self.engine.live_count()

    def true_ratio(self) -> float:
        live = self.engine.live_count()
        if not live:
            return 0.0
        return self.engine.public_count() / live

    # ------------------------------------------------------------------ graph

    def overlay_graph(self) -> ColumnarOverlay:
        """Directed adjacency over live nodes (edges to dead nodes and self-loops
        dropped), as a read-only view over the engine's view columns."""
        return ColumnarOverlay(self.engine)

    def traffic_snapshot(self) -> ColumnarTrafficSnapshot:
        return self.monitor.snapshot(self.sim.now)

    # ------------------------------------------------------------------ failures & churn

    def kill(self, node_id: int) -> None:
        self.engine.kill(node_id)

    def kill_random_fraction(
        self,
        fraction: float,
        only: Optional[Callable[[ColumnarHandle], bool]] = None,
    ) -> List[int]:
        if not 0.0 <= fraction <= 1.0:
            raise ExperimentError(f"fraction out of range: {fraction}")
        if only is None:
            candidates = self.engine.live_rows()
        else:
            candidates = [
                row for row in self.engine.live_rows() if only(ColumnarHandle(self, row))
            ]
        count = int(round(fraction * len(candidates)))
        victims = self.rng.sample(candidates, min(count, len(candidates)))
        for row in victims:
            self.engine.kill(row)
        return victims

    def churn_step(self, fraction: float) -> int:
        """Probabilistically-rounded per-class churn, same decision sequence as the
        object scenario (floor + one Bernoulli draw per class, then a sample)."""
        replaced = 0
        for is_public, ids in (
            (True, self.engine.live_public_rows()),
            (False, self.engine.live_private_rows()),
        ):
            expected = fraction * len(ids)
            count = int(math.floor(expected))
            if self.rng.random() < (expected - count):
                count += 1
            if count == 0:
                continue
            victims = self.rng.sample(ids, min(count, len(ids)))
            for node_id in victims:
                self.engine.kill(node_id)
                self.add_node(public=is_public)
                replaced += 1
        return replaced

    # ------------------------------------------------------------------ NAT classes

    def nat_class_members(self) -> Dict[str, List[int]]:
        classes: Dict[str, List[int]] = {}
        labels = self._nat_labels
        nat_class = self.engine.nat_class
        for row in self.engine.live_rows():
            classes.setdefault(labels[nat_class[row]], []).append(row)
        return classes

    # ------------------------------------------------------------------ snapshots

    def clone(self) -> "ColumnarScenario":
        """Deep copy (clock, pending events, RNG streams, every column) — running
        the clone reproduces exactly what the original would have done."""
        return copy.deepcopy(self)

    # ------------------------------------------------------------------ protocol access

    def pss_of(self, node_id: int):
        if not (0 < node_id < self.engine.rows) or not self.engine.alive[node_id]:
            raise ExperimentError(f"no peer-sampling service for node {node_id}")
        return ColumnarService(self, node_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnarScenario(protocol={self.config.protocol}, "
            f"live={self.live_count()}, t={self.sim.now / 1000.0:.1f}s)"
        )
