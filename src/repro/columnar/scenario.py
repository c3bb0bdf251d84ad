"""The columnar engine's scenario: :class:`~repro.workload.scenario.BaseScenario`
over :class:`~repro.columnar.engine.ColumnarEngine` columns.

Every per-node fact lives in engine columns, and node ids are engine rows, so
each contract method reads the columns and returns plain data; no per-node object
exists. A 10⁶-node populated scenario is therefore a handful of flat arrays, not
10⁶ component objects.

It owns a real :class:`~repro.simulator.core.Simulator`, so workload timelines,
Poisson join processes, churn processes and the deterministic RNG derivation tree
all work unmodified; the engine contributes one self-rescheduling simulator event
that executes a whole gossip round at every exact round boundary.

Fidelity deltas vs the object backend are documented in docs/columnar_backend.md
(round-synchronous delivery, ring estimator cache, truncated estimate forwarding);
``identify_nat_types``, ``selection=RANDOM`` and :meth:`sample_class_counts` are
refused here.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from repro.columnar.engine import ColumnarEngine
from repro.errors import ConfigurationError
from repro.membership.policies import SelectionPolicy
from repro.workload.scenario import BaseScenario


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


class _EngineCounters:
    """The contract's two counters, ``network.packets_sent`` and
    ``monitor.drop_reasons``, read off the engine."""

    __slots__ = ("_engine",)

    def __init__(self, engine: ColumnarEngine) -> None:
        self._engine = engine

    @property
    def packets_sent(self) -> int:
        return self._engine.packets_sent

    @property
    def drop_reasons(self) -> Dict[str, int]:
        return dict(self._engine.drops)


class ColumnarScenario(BaseScenario):
    """A complete column-backed deployment of one peer-sampling protocol."""

    ENGINE = "columnar"

    def __init__(self, config) -> None:
        super().__init__(config)
        if config.identify_nat_types:
            raise ConfigurationError(
                "engine='columnar' does not support identify_nat_types "
                "(Algorithm 1 needs per-message NAT traversal)"
            )
        if self._pss_config.selection is not SelectionPolicy.TAIL:
            raise ConfigurationError(
                f"engine='columnar' runs tail partner selection only; "
                f"selection={self._pss_config.selection.value!r} runs only on "
                f"engine='object'"
            )
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
        self.network = self.monitor = _EngineCounters(self.engine)
        self.set_loss_rate(config.loss_rate)
        #: NAT-class label table; engine rows store indexes into it.
        self._nat_labels: List[str] = ["public"]
        self._nat_label_index: Dict[str, int] = {"public": 0}
        self._rounds_scheduled = 0
        self.sim.schedule_at(self.round_ms, self._engine_round)

    def _engine_round(self) -> None:
        """One simulator event per gossip round, at exact k·round_ms boundaries."""
        self.engine.run_round()
        self._rounds_scheduled += 1
        self.sim.schedule_at(
            (self._rounds_scheduled + 1) * self.round_ms, self._engine_round
        )

    # ------------------------------------------------------------------ node creation

    def _label_index(self, label: str) -> int:
        index = self._nat_label_index.get(label)
        if index is None:
            index = len(self._nat_labels)
            self._nat_labels.append(label)
            self._nat_label_index[label] = index
        return index

    def _add_public_node(self) -> int:
        return self.engine.add_node(True, now_ms=self.sim.now, nat_class=0)

    def _add_private_node(self) -> int:
        use_upnp = (
            self.config.upnp_fraction > 0.0
            and self.rng.random() < self.config.upnp_fraction
        )
        gateway_profile_name, _profile = self._gateway_profile()
        label = "upnp" if use_upnp else gateway_profile_name
        return self.engine.add_node(
            use_upnp, now_ms=self.sim.now, nat_class=self._label_index(label)
        )

    def populate(self, n_public: int, n_private: int) -> None:
        """The shared creation order, into columns sized for it up front."""
        self.engine.reserve(n_public + n_private + 1)
        super().populate(n_public, n_private)

    # ------------------------------------------------------------------ population

    def live_ids(self) -> List[int]:
        return self.engine.live_rows()

    def live_public_ids(self) -> List[int]:
        return self.engine.live_public_rows()

    def live_private_ids(self) -> List[int]:
        return self.engine.live_private_rows()

    def live_count(self) -> int:
        return self.engine.live_count()

    def nat_class_members(self) -> Dict[str, List[int]]:
        classes: Dict[str, List[int]] = {}
        labels = self._nat_labels
        nat_class = self.engine.nat_class
        for row in self.engine.live_rows():
            classes.setdefault(labels[nat_class[row]], []).append(row)
        return classes

    # ------------------------------------------------------------------ measurements

    def overlay_graph(self) -> ColumnarOverlay:
        """Directed adjacency over live nodes (edges to dead nodes and self-loops
        dropped), as a read-only view over the engine's view columns."""
        return ColumnarOverlay(self.engine)

    def in_degree_histogram(self) -> Dict[int, int]:
        return self.engine.in_degree_histogram().to_histogram()

    def view_age_histogram(self) -> Dict[int, int]:
        return self.engine.view_age_histogram()

    def sample_class_counts(self, per_node: int) -> Dict[str, int]:
        # A columnar sampler would be a second copy of core/sampling.py's rule.
        raise ConfigurationError(
            "engine='columnar' keeps no per-node sampling service; drawing samples "
            "through the PSS API runs only on engine='object'"
        )

    def ratio_estimates(self, min_rounds: int = 2) -> List[float]:
        if not self.engine.estimating:
            return []
        return self.engine.measured_estimates(min_rounds)

    def traffic_snapshot(self) -> Tuple[float, object, object]:
        """``(time, tx, rx)``: flat copies of the byte columns."""
        rows = self.engine.rows
        return self.sim.now, self.engine.tx_bytes[:rows], self.engine.rx_bytes[:rows]

    def load_by_class(self, since: Tuple[float, object, object]) -> Dict[str, float]:
        time_ms, base_tx, base_rx = since
        window_seconds = (self.sim.now - time_ms) / 1000.0
        if window_seconds <= 0:
            return {}
        engine = self.engine
        tx, rx, alive, public = engine.tx_bytes, engine.rx_bytes, engine.alive, engine.is_public
        totals = {"public": 0.0, "private": 0.0, "all": 0.0}
        counts = dict.fromkeys(totals, 0)
        # One pass in ascending row order; each class's sum keeps that order.
        for row in range(1, engine.rows):
            old_tx = base_tx[row] if row < len(base_tx) else 0
            old_rx = base_rx[row] if row < len(base_rx) else 0
            if not alive[row] or not (tx[row] or rx[row] or old_tx or old_rx):
                continue
            for label in ("public" if public[row] else "private", "all"):
                counts[label] += 1
                totals[label] += tx[row] - old_tx
                totals[label] += rx[row] - old_rx
        return {
            label: totals[label] / window_seconds / counts[label] if counts[label] else 0.0
            for label in totals
        }

    # ------------------------------------------------------------------ link control

    def set_loss_rate(self, rate: float) -> float:
        previous, self._loss_rate = self._loss_rate, rate
        self.engine.configure_loss(rate, rate)
        return previous

    def set_partition(self, node_ids: Optional[Iterable[int]]) -> None:
        self.engine.set_partition(() if node_ids is None else list(node_ids))

    # ------------------------------------------------------------------ failures

    def kill(self, node_id: int) -> None:
        self.engine.kill(node_id)
