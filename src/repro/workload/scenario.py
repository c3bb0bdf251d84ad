"""The scenario contract both engines implement, and the object engine's scenario.

A scenario is one simulated deployment of one peer-sampling protocol: it creates
public and private nodes, runs them, kills and replaces them, and answers what the
metrics ask. :class:`BaseScenario` is that surface, written once. It holds the
code the two engines share (population order, churn and failure draws, running,
cloning) and declares the rest as abstract methods that return plain data — id
lists, a class table, an adjacency mapping, per-class loads. Probes, workload
events and experiment kinds read a scenario only through it, so they run unchanged
on either engine.

:class:`Scenario` is the object engine: it owns the simulator and network, creates
nodes on demand (allocating addresses and NAT boxes), seeds their initial views
from the bootstrap registry, and keeps each live node's component graph in a
:class:`NodeHandle` (``scenario.nodes``; a kill drops it). The columnar engine is
:class:`repro.columnar.scenario.ColumnarScenario`; :func:`create_scenario` picks
one by ``config.engine``.

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
>>> len(scenario.ratio_estimates()) == scenario.live_count()
True
"""

from __future__ import annotations

import copy
import math
from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Set, Union

from repro.bootstrap.registry import BootstrapRegistry
from repro.constants import DEFAULT_ROUND_MS
from repro.errors import ConfigurationError, ExperimentError
from repro.membership.base import PeerSamplingService, PssConfig
from repro.membership.plugin import ProtocolPlugin, get_plugin, protocol_names
from repro.metrics.graph import build_overlay_graph, in_degree_distribution
from repro.nat.mixture import NatMixture
from repro.nat.nat_box import NatBox
from repro.nat.types import NatProfile
from repro.nat.upnp import UpnpNatBox
from repro.natid.protocol import NatIdentificationClient, NatIdentificationServer
from repro.net.address import Endpoint, NatType, NodeAddress
from repro.simulator.core import Simulator, shuffle
from repro.simulator.host import Host
from repro.simulator.latency import ConstantLatency, KingLatencyModel, LatencyModel
from repro.simulator.loss import BernoulliLoss, NoLoss
from repro.simulator.monitor import TrafficMonitor, TrafficSnapshot
from repro.simulator.network import Network, NetworkPartition
from repro.workload.ipalloc import IpAllocator


#: Registered execution backends a :class:`ScenarioConfig` may select.
ENGINES = ("object", "columnar")
#: Latency models a :class:`ScenarioConfig` may name (the object engine builds them;
#: the columnar engine has no per-packet latency).
LATENCIES = ("king", "constant")
#: The gateway every private node gets when no ``nat_mixture`` is set.
DEFAULT_GATEWAY = ("restricted_cone", NatProfile.restricted_cone())


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
    nat_mixture:
        Optional gateway population: each private node's gateway samples its
        :class:`~repro.nat.types.NatProfile` from this
        :class:`~repro.nat.mixture.NatMixture`, deterministically from a stream derived
        from the scenario seed (the paper evaluates against its *measured* NAT-type
        distribution, registered as the ``"paper"`` mixture; a homogeneous deployment
        is a mixture of one profile). ``None`` gives every gateway the restricted-cone
        profile, the most common consumer NAT behaviour.
    latency:
        One of :data:`LATENCIES` (``"king"`` is the default) or a ready-made
        :class:`~repro.simulator.latency.LatencyModel`.
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
    nat_mixture: Optional[NatMixture] = None
    latency: Union[str, LatencyModel] = "king"
    identify_nat_types: bool = False
    upnp_fraction: float = 0.0
    engine: str = "object"

    def validate(self) -> None:
        if self.protocol not in protocol_names():
            raise ConfigurationError(
                f"unknown protocol {self.protocol!r}; expected one of {protocol_names()}"
            )
        if isinstance(self.latency, str) and self.latency not in LATENCIES:
            raise ConfigurationError(
                f"unknown latency model {self.latency!r}; expected one of {LATENCIES}"
            )
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


def create_scenario(config: Optional[ScenarioConfig] = None) -> "BaseScenario":
    """Build the scenario class the config's ``engine`` selects.

    ``"object"`` returns a :class:`Scenario`; ``"columnar"`` returns a
    :class:`repro.columnar.scenario.ColumnarScenario` (imported lazily — the
    columnar package imports this module for :class:`BaseScenario`). Both implement
    :class:`BaseScenario`, so callers built against this factory run unchanged on
    either engine.
    """
    config = config or ScenarioConfig()
    config.validate()
    if config.engine == "columnar":
        from repro.columnar.scenario import ColumnarScenario

        return ColumnarScenario(config)
    return Scenario(config)


class BaseScenario(ABC):
    """One deployment of one peer-sampling protocol, on either engine.

    Besides the methods below, the contract is ``config``, ``sim`` (the
    :class:`~repro.simulator.core.Simulator` whose clock, schedule and derived RNG
    streams drive the run), ``rng`` (the scenario's own decision stream) and
    ``plugin`` (the protocol's :class:`~repro.membership.plugin.ProtocolPlugin`),
    all set here, plus two counters each engine provides: ``network.packets_sent``
    and ``monitor.drop_reasons``.

    Node ids are ints, unique for the scenario's lifetime; every id list is in
    node-creation order.
    """

    #: The :attr:`ScenarioConfig.engine` value the subclass executes.
    ENGINE = ""

    def __init__(self, config: Optional[ScenarioConfig] = None) -> None:
        config = config or ScenarioConfig()
        config.validate()
        if config.engine != self.ENGINE:
            raise ConfigurationError(
                f"{type(self).__name__} executes engine={self.ENGINE!r} configs; build "
                f"engine={config.engine!r} scenarios through create_scenario()"
            )
        self.config = config
        self.sim = Simulator(seed=config.seed)
        self.rng = self.sim.derive_rng("scenario")
        self.plugin: ProtocolPlugin = get_plugin(config.protocol)
        self._pss_config = config.pss_config or self.plugin.default_config()
        self._pss_config.validate()
        # Mixture sampling runs on its own derived stream so that enabling a mixture
        # never perturbs the scenario RNG (and a mixture-free run consumes nothing).
        self._nat_mixture_rng = (
            self.sim.derive_rng("nat-mixture") if config.nat_mixture is not None else None
        )
        self._loss_rate = 0.0

    # ------------------------------------------------------------------ properties

    @property
    def round_ms(self) -> float:
        return getattr(self._pss_config, "round_ms", DEFAULT_ROUND_MS)

    @property
    def now(self) -> float:
        return self.sim.now

    @property
    def bootstrap_seed_size(self) -> int:
        """How many public nodes the bootstrap hands a joining node: a full view."""
        return getattr(self._pss_config, "view_size", 10)

    # ------------------------------------------------------------------ node creation

    def add_node(self, public: bool) -> int:
        """Create and start one node at the current virtual time; returns its id."""
        if public:
            return self._add_public_node()
        return self._add_private_node()

    def populate(self, n_public: int, n_private: int) -> None:
        """Create ``n_public`` + ``n_private`` nodes immediately (no join process),
        one :meth:`add_node` each, in :meth:`_creation_order`."""
        for is_public in self._creation_order(n_public, n_private):
            self.add_node(is_public)

    def _creation_order(self, n_public: int, n_private: int) -> List[bool]:
        """The classes :meth:`populate` creates, in order (``True`` for public).

        Public nodes come first, so that private nodes find bootstrap seeds, then
        the rest in the order ``rng`` shuffles them into, to avoid a systematic
        join-order bias.
        """
        if n_public < 0 or n_private < 0:
            raise ExperimentError("node counts must be non-negative")
        initial_public = min(n_public, max(1, self.bootstrap_seed_size))
        remaining = [True] * (n_public - initial_public) + [False] * n_private
        shuffle(self.rng, remaining)
        return [True] * initial_public + remaining

    def _gateway_profile(self) -> tuple:
        """The (name, profile) the next created gateway runs — mixture-drawn, or
        :data:`DEFAULT_GATEWAY`."""
        if self.config.nat_mixture is not None:
            return self.config.nat_mixture.sample(self._nat_mixture_rng)
        return DEFAULT_GATEWAY

    @abstractmethod
    def _add_public_node(self) -> int:
        """Create one public node; returns its id."""

    @abstractmethod
    def _add_private_node(self) -> int:
        """Create one node behind a gateway (UPnP-mapped with ``upnp_fraction``)."""

    # ------------------------------------------------------------------ running

    def run_ms(self, duration_ms: float) -> None:
        """Advance the simulation by ``duration_ms`` of virtual time."""
        self.sim.run_for(duration_ms)

    def run_rounds(self, rounds: float) -> None:
        """Advance the simulation by the given number of gossip rounds."""
        self.run_ms(rounds * self.round_ms)

    # ------------------------------------------------------------------ population

    @abstractmethod
    def live_ids(self) -> List[int]:
        """Ids of every live node."""

    @abstractmethod
    def live_public_ids(self) -> List[int]:
        """Ids of the live nodes that are publicly reachable (UPnP-mapped included)."""

    @abstractmethod
    def live_private_ids(self) -> List[int]:
        """Ids of the live nodes behind a NAT."""

    def live_count(self) -> int:
        return len(self.live_ids())

    def true_ratio(self) -> float:
        """The ground-truth ω = |public| / (|public| + |private|) over live nodes."""
        live = self.live_count()
        if not live:
            return 0.0
        return len(self.live_public_ids()) / live

    @abstractmethod
    def nat_class_members(self) -> Dict[str, List[int]]:
        """Live node ids grouped by NAT class.

        Classes are ``"public"`` (no gateway), ``"upnp"`` (gateway with an explicit
        UPnP port mapping — publicly reachable) and the canonical profile name of the
        gateway's NAT behaviour otherwise (``restricted_cone``, ``symmetric``, ...).
        This is what the per-NAT-type metric breakdowns key on when a
        :class:`~repro.nat.mixture.NatMixture` is in play.
        """

    # ------------------------------------------------------------------ measurements

    @abstractmethod
    def overlay_graph(self) -> Mapping[int, Set[int]]:
        """Directed adjacency over live nodes: ``{id: neighbour ids}``, with edges to
        dead nodes and self-loops dropped."""

    def in_degree_histogram(self) -> Dict[int, int]:
        """``{in-degree: node count}`` over the live overlay (empty when no node lives)."""
        graph = build_overlay_graph(self.overlay_graph())
        return in_degree_distribution(graph) if graph else {}

    @abstractmethod
    def view_age_histogram(self) -> Dict[int, int]:
        """``{age in rounds: entry count}`` over every live node's view entries."""

    @abstractmethod
    def sample_class_counts(self, per_node: int) -> Dict[str, int]:
        """Have every live node draw ``per_node`` samples through its peer-sampling
        service: ``{"public": n, "private": m}`` by the class of the sampled node.
        Draws consume the protocols' RNG streams, so measure everything else first."""

    @abstractmethod
    def ratio_estimates(self, min_rounds: int = 2) -> List[float]:
        """Every live node's current ω̂, among nodes that have executed at least
        ``min_rounds`` rounds and hold an estimate (the paper excludes new nodes
        until they have executed 2 rounds). Empty when the protocol estimates no ratio.
        """

    @abstractmethod
    def traffic_snapshot(self) -> object:
        """The per-node byte counters now: the start of a :meth:`load_by_class` window."""

    @abstractmethod
    def load_by_class(self, since: object) -> Dict[str, float]:
        """Average load per node in bytes per second (sent plus received) since the
        :meth:`traffic_snapshot` ``since``: ``{"public", "private", "all"}`` over the
        live nodes of each class that carried traffic then or now — Figure 7(a).
        Empty when no virtual time has passed since the snapshot."""

    # ------------------------------------------------------------------ link control

    def set_loss_rate(self, rate: float) -> float:
        """Drop every packet in transit with probability ``rate`` from now on;
        returns the rate it replaces. A rate outside [0, 1] is refused before
        anything changes."""
        if not 0.0 <= rate <= 1.0:
            raise ConfigurationError(f"loss rate out of range: {rate}")
        previous, self._loss_rate = self._loss_rate, rate
        self._apply_loss_rate(rate)
        return previous

    @abstractmethod
    def _apply_loss_rate(self, rate: float) -> None:
        """Make the engine drop packets with probability ``rate`` (in [0, 1])."""

    @abstractmethod
    def set_partition(self, node_ids: Optional[Iterable[int]]) -> None:
        """Split the network: traffic between ``node_ids`` and every other node is
        dropped until the next call; ``None`` heals the split."""

    # ------------------------------------------------------------------ failures & churn

    @abstractmethod
    def kill(self, node_id: int) -> None:
        """Crash one node (a no-op for an unknown or dead id)."""

    def kill_random_fraction(self, fraction: float) -> List[int]:
        """Kill a uniformly drawn ``fraction`` of the live nodes; returns their ids."""
        if not 0.0 <= fraction <= 1.0:
            raise ExperimentError(f"fraction out of range: {fraction}")
        candidates = self.live_ids()
        count = int(round(fraction * len(candidates)))
        victims = self.rng.sample(candidates, min(count, len(candidates)))
        for node_id in victims:
            self.kill(node_id)
        return victims

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

    # ------------------------------------------------------------------ snapshots

    def clone(self) -> "BaseScenario":
        """An independent deep copy of the whole deployment at the current instant.

        The clone carries every piece of state — virtual clock, pending events, RNG
        streams, views, NAT bindings or columns — so running the clone produces
        exactly the trajectory the original would have produced, and the original
        stays pristine. A kind that branches several destructive treatments off one
        warmed-up system (the ``failure`` kind's fractions) clones it once per
        treatment instead of rebuilding and re-warming the population every time.
        """
        return copy.deepcopy(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(protocol={self.config.protocol}, "
            f"live={self.live_count()}, t={self.sim.now / 1000.0:.1f}s)"
        )


class Scenario(BaseScenario):
    """The object engine: every node is a host, a protocol component and, if
    private, a NAT box, exchanging simulated packets."""

    ENGINE = "object"

    def __init__(self, config: Optional[ScenarioConfig] = None) -> None:
        super().__init__(config)
        self.monitor = TrafficMonitor()
        self.network = Network(
            self.sim, latency_model=self._build_latency_model(), monitor=self.monitor
        )
        self.registry = BootstrapRegistry(rng=self.sim.derive_rng("bootstrap"))
        self.ip_alloc = IpAllocator()
        self.nodes: Dict[int, NodeHandle] = {}
        self._next_node_id = 1

    def _build_latency_model(self) -> LatencyModel:
        latency = self.config.latency
        if isinstance(latency, LatencyModel):
            return latency
        if latency == "king":
            return KingLatencyModel(seed=self.config.seed)
        return ConstantLatency(50.0)  # validate() admits only LATENCIES

    # ------------------------------------------------------------------ node creation

    def _allocate_node_id(self) -> int:
        node_id = self._next_node_id
        self._next_node_id += 1
        return node_id

    def _add_public_node(self) -> int:
        node_id = self._allocate_node_id()
        ip = self.ip_alloc.public_ip()
        address = NodeAddress(
            node_id=node_id,
            endpoint=Endpoint(ip, self._pss_config.port),
            nat_type=NatType.PUBLIC,
        )
        host = Host(self.sim, self.network, address, natbox=None)
        return self._finish_node(host, natbox=None, ground_truth_public=True)

    def _add_private_node(self) -> int:
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
    ) -> int:
        if self.config.identify_nat_types:
            handle = self._finish_node_with_identification(host, natbox, ground_truth_public)
        else:
            handle = self._start_pss(host, natbox, ground_truth_public)
        handle.nat_profile_name = nat_profile_name if natbox is not None else None
        self.nodes[host.node_id] = handle
        return host.node_id

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

    # ------------------------------------------------------------------ queries

    def live_handles(self) -> List[NodeHandle]:
        """The live nodes' handles — the object engine's component graph, which only
        this class, tests and examples reach into."""
        return [h for h in self.nodes.values() if h.alive and h.pss is not None]

    def pss_of(self, node_id: int) -> PeerSamplingService:
        handle = self.nodes.get(node_id)
        if handle is None or handle.pss is None:
            raise ExperimentError(f"no peer-sampling service for node {node_id}")
        return handle.pss

    def live_ids(self) -> List[int]:
        return [h.node_id for h in self.live_handles()]

    def live_public_ids(self) -> List[int]:
        return [h.node_id for h in self.live_handles() if h.address.is_public]

    def live_private_ids(self) -> List[int]:
        return [h.node_id for h in self.live_handles() if h.address.is_private]

    def nat_class_members(self) -> Dict[str, List[int]]:
        classes: Dict[str, List[int]] = {}
        for handle in self.live_handles():
            if handle.natbox is None:
                label = "public"
            elif isinstance(handle.natbox, UpnpNatBox):
                label = "upnp"
            else:
                label = handle.nat_profile_name
            classes.setdefault(label, []).append(handle.node_id)
        return classes

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

    def view_age_histogram(self) -> Dict[int, int]:
        ages = Counter(
            descriptor.age
            for handle in self.live_handles()
            for view in handle.pss.views()
            for descriptor in view
        )
        return dict(sorted(ages.items()))

    def sample_class_counts(self, per_node: int) -> Dict[str, int]:
        counts = {"public": 0, "private": 0}
        for handle in self.live_handles():
            for address in handle.pss.sample_many(per_node):
                counts["public" if address.is_public else "private"] += 1
        return counts

    def ratio_estimates(self, min_rounds: int = 2) -> List[float]:
        if not self.plugin.estimates_ratio:
            return []
        estimates = (
            handle.pss.estimated_ratio()
            for handle in self.live_handles()
            if handle.pss.current_round >= min_rounds
        )
        return [estimate for estimate in estimates if estimate is not None]

    def traffic_snapshot(self) -> TrafficSnapshot:
        return self.monitor.snapshot(self.sim.now)

    def load_by_class(self, since: TrafficSnapshot) -> Dict[str, float]:
        now = self.sim.now
        if now <= since.time_ms:
            return {}
        public = set(self.live_public_ids())
        private = set(self.live_private_ids())
        everyone = public | private
        average = self.monitor.average_load_bps
        return {
            "public": average(since, now, node_filter=public.__contains__),
            "private": average(since, now, node_filter=private.__contains__),
            "all": average(since, now, node_filter=everyone.__contains__),
        }

    # ------------------------------------------------------------------ link control

    def _apply_loss_rate(self, rate: float) -> None:
        self.network.loss_model = BernoulliLoss(rate) if rate > 0.0 else NoLoss()

    def set_partition(self, node_ids: Optional[Iterable[int]]) -> None:
        if node_ids is None:
            self.network.partition = None
            return
        # A NAT'ed node's side is its gateway's external IP: the address its
        # packets actually travel under. Ids of dead or never-created nodes name
        # no side and are skipped, as ``kill`` skips them.
        handles = [self.nodes[node_id] for node_id in node_ids if node_id in self.nodes]
        self.network.partition = NetworkPartition(
            h.natbox.external_ip if h.natbox is not None else h.address.endpoint.ip
            for h in handles
        )

    # ------------------------------------------------------------------ failures

    def kill(self, node_id: int) -> None:
        handle = self.nodes.get(node_id)
        if handle is None or not handle.alive:
            return
        handle.host.kill()
        self.registry.unregister(node_id)
        # Ids are never reused, so nothing can ask for this handle again: dropping
        # it releases the node's component graph. Its NAT box stays routable in
        # the network (it still filters, and counts ``dead_host`` drops).
        del self.nodes[node_id]
