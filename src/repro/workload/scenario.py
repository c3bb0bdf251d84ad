"""The scenario builder: wires simulator, network, NATs, bootstrap and protocol nodes.

A :class:`Scenario` is the in-process equivalent of the paper's Kompics experiment
set-ups, and it is **orchestration only**: it owns the simulator and network, creates
public and private nodes on demand (allocating addresses and NAT boxes), seeds their
initial views from the bootstrap registry, and runs/kills nodes. The protocol comes
from the :class:`~repro.membership.plugin.ProtocolPlugin` registry (``scenario.plugin``,
whose ``nat_strategy`` says what the protocol is), and each live node's service is
``handle.pss`` — measurements live in :mod:`repro.metrics.probes`, not here.

Example
-------
>>> from repro.workload import Scenario, ScenarioConfig
>>> scenario = Scenario(ScenarioConfig(protocol="croupier", seed=7))
>>> scenario.populate(n_public=10, n_private=40)
>>> scenario.run_rounds(30)
>>> 0.0 < scenario.true_ratio() < 1.0
True
>>> scenario.plugin.estimates_ratio
True
>>> estimators = [handle.pss for handle in scenario.live_handles()]
>>> len(estimators) == scenario.live_count()
True
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.bootstrap.registry import BootstrapRegistry
from repro.constants import DEFAULT_ROUND_MS
from repro.errors import ConfigurationError, ExperimentError
from repro.membership.base import PeerSamplingService, PssConfig
from repro.membership.plugin import ProtocolPlugin, get_plugin, protocol_names
from repro.nat.mixture import NatMixture
from repro.nat.nat_box import NatBox
from repro.nat.types import NatProfile, profile_name
from repro.nat.upnp import UpnpNatBox
from repro.natid.protocol import NatIdentificationClient, NatIdentificationServer
from repro.net.address import Endpoint, NatType, NodeAddress
from repro.simulator.core import Simulator
from repro.simulator.host import Host
from repro.simulator.latency import ConstantLatency, KingLatencyModel, LatencyModel, UniformLatency
from repro.simulator.loss import BernoulliLoss, LossModel, NoLoss
from repro.simulator.monitor import TrafficMonitor, TrafficSnapshot
from repro.simulator.network import Network
from repro.workload.ipalloc import IpAllocator


#: Registered execution backends a :class:`ScenarioConfig` may select.
ENGINES = ("object", "columnar")


@dataclass
class ScenarioConfig:
    """Everything needed to build a scenario.

    Attributes
    ----------
    protocol:
        A registered protocol name: ``"croupier"``, ``"cyclon"``, ``"nylon"`` or
        ``"gozar"`` unless a plugin adds more.
    seed:
        Master seed; fixes every random decision in the run.
    pss_config:
        Protocol configuration prototype shared by every node. ``None`` selects the
        protocol's default configuration (which matches the paper's setup).
    nat_profile:
        NAT behaviour for private nodes' gateways. The default (restricted cone) is the
        most common consumer NAT behaviour. Ignored when ``nat_mixture`` is set.
    nat_mixture:
        Optional heterogeneous gateway population: each private node's gateway samples
        its :class:`~repro.nat.types.NatProfile` from this
        :class:`~repro.nat.mixture.NatMixture`, deterministically from a stream derived
        from the scenario seed (the paper evaluates against its *measured* NAT-type
        distribution, registered as the ``"paper"`` mixture). Takes precedence over
        ``nat_profile``.
    latency:
        ``"king"`` (default), ``"constant"``, ``"uniform"``, or a ready-made
        :class:`~repro.simulator.latency.LatencyModel`.
    loss_rate:
        Uniform packet-loss probability (0 disables loss).
    bootstrap_seed_size:
        How many public nodes the bootstrap hands to a joining node for its initial
        view. ``None`` means "the protocol's view size".
    identify_nat_types:
        If ``True``, joining nodes run the distributed NAT-type identification protocol
        (Algorithm 1) to discover their class instead of being told the ground truth.
    upnp_fraction:
        Fraction of gateway-equipped nodes whose NAT supports UPnP IGD; those nodes map
        their ports explicitly and behave (and are counted) as public nodes.
    engine:
        Execution backend: ``"object"`` (this module's per-node component simulation,
        the default) or ``"columnar"`` (:mod:`repro.columnar` — flat-array state and
        batched rounds for 10⁵–10⁶-node cells). Build through
        :func:`create_scenario` to get the right class for the configured engine.
    """

    protocol: str = "croupier"
    seed: int = 42
    pss_config: Optional[PssConfig] = None
    nat_profile: NatProfile = field(default_factory=NatProfile.restricted_cone)
    nat_mixture: Optional[NatMixture] = None
    latency: Union[str, LatencyModel] = "king"
    loss_rate: float = 0.0
    bootstrap_seed_size: Optional[int] = None
    identify_nat_types: bool = False
    upnp_fraction: float = 0.0
    engine: str = "object"

    def validate(self) -> None:
        if self.protocol not in protocol_names():
            raise ConfigurationError(
                f"unknown protocol {self.protocol!r}; expected one of {protocol_names()}"
            )
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ConfigurationError(f"loss_rate out of range: {self.loss_rate}")
        if not 0.0 <= self.upnp_fraction <= 1.0:
            raise ConfigurationError(f"upnp_fraction out of range: {self.upnp_fraction}")
        if self.engine not in ENGINES:
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}"
            )


@dataclass
class NodeHandle:
    """Everything the scenario knows about one node."""

    node_id: int
    host: Host
    pss: PeerSamplingService
    natbox: Optional[NatBox]
    is_public: bool
    joined_at_ms: float
    natid_client: Optional[NatIdentificationClient] = None
    #: Canonical name of the gateway's NAT profile (``None`` for un-NATed nodes).
    nat_profile_name: Optional[str] = None

    @property
    def alive(self) -> bool:
        return self.host.alive

    @property
    def address(self) -> NodeAddress:
        return self.host.address


def create_scenario(config: Optional[ScenarioConfig] = None):
    """Build the scenario class the config's ``engine`` selects.

    ``"object"`` returns a :class:`Scenario`; ``"columnar"`` returns a
    :class:`repro.columnar.scenario.ColumnarScenario` (imported lazily — the
    columnar package imports this module for :class:`ScenarioConfig`). Both expose
    the same populate/run/plugin/churn surface, so callers built against this
    factory run unchanged on either backend.
    """
    config = config or ScenarioConfig()
    config.validate()
    if config.engine == "columnar":
        from repro.columnar.scenario import ColumnarScenario

        return ColumnarScenario(config)
    return Scenario(config)


class Scenario:
    """A complete simulated deployment of one peer-sampling protocol."""

    def __init__(self, config: Optional[ScenarioConfig] = None) -> None:
        self.config = config or ScenarioConfig()
        self.config.validate()
        if self.config.engine != "object":
            raise ConfigurationError(
                f"Scenario executes engine='object' configs; build engine="
                f"{self.config.engine!r} scenarios through create_scenario()"
            )
        self.sim = Simulator(seed=self.config.seed)
        self.monitor = TrafficMonitor()
        self.network = Network(
            self.sim,
            latency_model=self._build_latency_model(),
            loss_model=self._build_loss_model(),
            monitor=self.monitor,
        )
        self.registry = BootstrapRegistry(rng=self.sim.derive_rng("bootstrap"))
        self.ip_alloc = IpAllocator()
        self.nodes: Dict[int, NodeHandle] = {}
        self.rng = self.sim.derive_rng("scenario")
        self._next_node_id = 1
        self.plugin: ProtocolPlugin = get_plugin(self.config.protocol)
        self._pss_config = self.config.pss_config or self.plugin.default_config()
        self._pss_config.validate()
        # Mixture sampling runs on its own derived stream so that enabling a mixture
        # never perturbs the scenario RNG (and a mixture-free run consumes nothing).
        self._nat_mixture_rng = (
            self.sim.derive_rng("nat-mixture")
            if self.config.nat_mixture is not None
            else None
        )
        self._fixed_profile_name = profile_name(self.config.nat_profile)

    # ------------------------------------------------------------------ construction

    def _build_latency_model(self) -> LatencyModel:
        latency = self.config.latency
        if isinstance(latency, LatencyModel):
            return latency
        if latency == "king":
            return KingLatencyModel(seed=self.config.seed)
        if latency == "constant":
            return ConstantLatency(50.0)
        if latency == "uniform":
            return UniformLatency(10.0, 150.0, seed=self.config.seed)
        raise ConfigurationError(f"unknown latency model {latency!r}")

    def _build_loss_model(self) -> LossModel:
        if self.config.loss_rate > 0.0:
            return BernoulliLoss(self.config.loss_rate)
        return NoLoss()

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

    def add_node(self, public: bool) -> NodeHandle:
        """Create, register and start one node right now (at the current virtual time)."""
        if public:
            return self._add_public_node()
        return self._add_private_node()

    def add_public_node(self) -> NodeHandle:
        return self._add_public_node()

    def add_private_node(self) -> NodeHandle:
        return self._add_private_node()

    def populate(self, n_public: int, n_private: int) -> None:
        """Create ``n_public`` + ``n_private`` nodes immediately (no join process).

        Public nodes are created first so that private nodes find bootstrap seeds, then
        creation alternates to avoid a systematic join-order bias.
        """
        if n_public < 0 or n_private < 0:
            raise ExperimentError("node counts must be non-negative")
        initial_public = min(n_public, max(1, self.bootstrap_seed_size))
        for _ in range(initial_public):
            self._add_public_node()
        remaining = [True] * (n_public - initial_public) + [False] * n_private
        self.rng.shuffle(remaining)
        for is_public in remaining:
            self.add_node(is_public)

    def _allocate_node_id(self) -> int:
        node_id = self._next_node_id
        self._next_node_id += 1
        return node_id

    def _add_public_node(self) -> NodeHandle:
        node_id = self._allocate_node_id()
        ip = self.ip_alloc.public_ip()
        address = NodeAddress(
            node_id=node_id,
            endpoint=Endpoint(ip, self._pss_config.port),
            nat_type=NatType.PUBLIC,
        )
        host = Host(self.sim, self.network, address, natbox=None)
        return self._finish_node(host, natbox=None, ground_truth_public=True)

    def _gateway_profile(self) -> tuple:
        """The (name, profile) the next created gateway runs — fixed or mixture-drawn."""
        if self.config.nat_mixture is not None:
            return self.config.nat_mixture.sample(self._nat_mixture_rng)
        return self._fixed_profile_name, self.config.nat_profile

    def _add_private_node(self) -> NodeHandle:
        node_id = self._allocate_node_id()
        external_ip = self.ip_alloc.nat_external_ip()
        internal_ip = self.ip_alloc.private_ip()
        use_upnp = (
            self.config.upnp_fraction > 0.0
            and self.rng.random() < self.config.upnp_fraction
        )
        gateway_profile_name, gateway_profile = self._gateway_profile()
        if use_upnp:
            natbox: NatBox = UpnpNatBox(external_ip, profile=gateway_profile)
        else:
            natbox = NatBox(external_ip, profile=gateway_profile)
        nat_type = NatType.PUBLIC if use_upnp else NatType.PRIVATE
        address = NodeAddress(
            node_id=node_id,
            endpoint=Endpoint(external_ip, self._pss_config.port),
            nat_type=nat_type,
            private_endpoint=Endpoint(internal_ip, self._pss_config.port),
        )
        host = Host(self.sim, self.network, address, natbox=natbox)
        if use_upnp:
            # A UPnP-capable gateway lets the node map its protocol port explicitly,
            # making it reachable like a public node.
            natbox.add_port_mapping(
                Endpoint(internal_ip, self._pss_config.port),
                external_port=self._pss_config.port,
                now=self.sim.now,
            )
        return self._finish_node(
            host,
            natbox=natbox,
            ground_truth_public=use_upnp,
            nat_profile_name=gateway_profile_name,
        )

    def _finish_node(
        self,
        host: Host,
        natbox: Optional[NatBox],
        ground_truth_public: bool,
        nat_profile_name: Optional[str] = None,
    ) -> NodeHandle:
        if self.config.identify_nat_types:
            handle = self._finish_node_with_identification(host, natbox, ground_truth_public)
        else:
            handle = self._start_pss(host, natbox, ground_truth_public)
        handle.nat_profile_name = nat_profile_name if natbox is not None else None
        self.nodes[host.node_id] = handle
        return handle

    def _start_pss(
        self, host: Host, natbox: Optional[NatBox], ground_truth_public: bool
    ) -> NodeHandle:
        pss = self.plugin.create(host, self._pss_config)
        seeds = self.registry.sample(self.bootstrap_seed_size, exclude_id=host.node_id)
        pss.initialize_view(seeds)
        if host.address.is_public:
            self.registry.register(host.address)
        pss.start()
        return NodeHandle(
            node_id=host.node_id,
            host=host,
            pss=pss,
            natbox=natbox,
            is_public=host.address.is_public,
            joined_at_ms=self.sim.now,
        )

    def _finish_node_with_identification(
        self, host: Host, natbox: Optional[NatBox], ground_truth_public: bool
    ) -> NodeHandle:
        """Join path that runs Algorithm 1 before starting the peer-sampling service."""
        supports_upnp = isinstance(natbox, UpnpNatBox)
        # Public nodes also serve the identification protocol for others.
        if ground_truth_public or natbox is None:
            NatIdentificationServer(host, public_node_provider=self.registry.all_public).start()
        client = NatIdentificationClient(host, supports_upnp_igd=supports_upnp)
        handle = NodeHandle(
            node_id=host.node_id,
            host=host,
            pss=None,  # type: ignore[arg-type]  # installed when identification completes
            natbox=natbox,
            is_public=ground_truth_public,
            joined_at_ms=self.sim.now,
            natid_client=client,
        )

        bootstrap_nodes = self.registry.sample(2, exclude_id=host.node_id)

        def finish(result) -> None:
            nat_type = result.nat_type
            if (
                nat_type is not NatType.PUBLIC
                and ground_truth_public
                and (not bootstrap_nodes or len(self.registry) < 3)
            ):
                # Algorithm 1 needs at least one bootstrap public node to test against
                # and one further public node (outside the client's bootstrap list) to
                # send the ForwardTest, so the first few public nodes cannot be
                # identified by the protocol alone. Real deployments provision these
                # well-known bootstrap nodes by hand; we mirror that by trusting the
                # ground truth until three public nodes are registered.
                nat_type = NatType.PUBLIC
            host.address = host.address.with_nat_type(nat_type)
            started = self._start_pss(host, natbox, ground_truth_public)
            handle.pss = started.pss
            handle.is_public = host.address.is_public

        client.identify(bootstrap_nodes, callback=finish)
        return handle

    # ------------------------------------------------------------------ running

    def run_ms(self, duration_ms: float) -> None:
        """Advance the simulation by ``duration_ms`` of virtual time."""
        self.sim.run_for(duration_ms)

    def run_rounds(self, rounds: float) -> None:
        """Advance the simulation by the given number of gossip rounds."""
        self.run_ms(rounds * self.round_ms)

    # ------------------------------------------------------------------ queries

    def live_handles(self) -> List[NodeHandle]:
        return [h for h in self.nodes.values() if h.alive and h.pss is not None]

    def live_public_ids(self) -> List[int]:
        return [h.node_id for h in self.live_handles() if h.address.is_public]

    def live_private_ids(self) -> List[int]:
        return [h.node_id for h in self.live_handles() if h.address.is_private]

    def live_count(self) -> int:
        return len(self.live_handles())

    def true_ratio(self) -> float:
        """The ground-truth ω = |public| / (|public| + |private|) over live nodes."""
        live = self.live_handles()
        if not live:
            return 0.0
        public = sum(1 for h in live if h.address.is_public)
        return public / len(live)

    def overlay_graph(self) -> Dict[int, set]:
        """Directed adjacency over live nodes (edges to dead nodes are dropped)."""
        live = {h.node_id for h in self.live_handles()}
        graph: Dict[int, set] = {}
        for handle in self.live_handles():
            neighbours = {
                a.node_id
                for a in handle.pss.neighbor_addresses()
                if a.node_id in live and a.node_id != handle.node_id
            }
            graph[handle.node_id] = neighbours
        return graph

    def traffic_snapshot(self) -> TrafficSnapshot:
        return self.monitor.snapshot(self.sim.now)

    # ------------------------------------------------------------------ failures & churn

    def kill(self, node_id: int) -> None:
        handle = self.nodes.get(node_id)
        if handle is None or not handle.alive:
            return
        handle.host.kill()
        self.registry.unregister(node_id)

    def kill_random_fraction(
        self,
        fraction: float,
        only: Optional[Callable[[NodeHandle], bool]] = None,
    ) -> List[int]:
        """Kill a random ``fraction`` of live nodes (optionally filtered); returns their ids."""
        if not 0.0 <= fraction <= 1.0:
            raise ExperimentError(f"fraction out of range: {fraction}")
        candidates = [h for h in self.live_handles() if only is None or only(h)]
        count = int(round(fraction * len(candidates)))
        victims = self.rng.sample(candidates, min(count, len(candidates)))
        for handle in victims:
            self.kill(handle.node_id)
        return [h.node_id for h in victims]

    def churn_step(self, fraction: float) -> int:
        """One churn round: replace ``fraction`` of each node class with fresh nodes.

        Uses probabilistic rounding so that small fractions of small populations still
        produce the right *expected* churn rate. Returns the number of nodes replaced.
        """
        replaced = 0
        for is_public, ids in (
            (True, self.live_public_ids()),
            (False, self.live_private_ids()),
        ):
            expected = fraction * len(ids)
            count = int(math.floor(expected))
            if self.rng.random() < (expected - count):
                count += 1
            if count == 0:
                continue
            victims = self.rng.sample(ids, min(count, len(ids)))
            for node_id in victims:
                self.kill(node_id)
                self.add_node(public=is_public)
                replaced += 1
        return replaced

    # ------------------------------------------------------------------ NAT classes

    def nat_class_members(self) -> Dict[str, List[int]]:
        """Live node ids grouped by NAT class, in node-creation order.

        Classes are ``"public"`` (no gateway), ``"upnp"`` (gateway with an explicit
        UPnP port mapping — publicly reachable) and the canonical profile name of the
        gateway's NAT behaviour otherwise (``restricted_cone``, ``symmetric``, ...).
        This is what the per-NAT-type metric breakdowns key on when a
        :class:`~repro.nat.mixture.NatMixture` is in play.
        """
        classes: Dict[str, List[int]] = {}
        for handle in self.live_handles():
            if handle.natbox is None:
                label = "public"
            elif isinstance(handle.natbox, UpnpNatBox):
                label = "upnp"
            else:
                label = handle.nat_profile_name or self._fixed_profile_name
            classes.setdefault(label, []).append(handle.node_id)
        return classes

    # ------------------------------------------------------------------ snapshots

    def clone(self) -> "Scenario":
        """An independent deep copy of the whole deployment at the current instant.

        The clone carries every piece of state — virtual clock, pending events, RNG
        streams, views, NAT bindings — so running the clone produces exactly the
        trajectory the original would have produced, and the original stays pristine.
        Harnesses that branch several destructive treatments off one warmed-up system
        (e.g. the catastrophic-failure sweep) clone once per treatment instead of
        rebuilding and re-warming the population every time.
        """
        return copy.deepcopy(self)

    # ------------------------------------------------------------------ protocol access

    def pss_of(self, node_id: int) -> PeerSamplingService:
        handle = self.nodes.get(node_id)
        if handle is None or handle.pss is None:
            raise ExperimentError(f"no peer-sampling service for node {node_id}")
        return handle.pss

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Scenario(protocol={self.config.protocol}, live={self.live_count()}, "
            f"t={self.sim.now / 1000.0:.1f}s)"
        )
