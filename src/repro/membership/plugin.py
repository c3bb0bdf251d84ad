"""The protocol plugin registry: how peer-sampling protocols join the experiment stack.

Every protocol module registers one :class:`ProtocolPlugin` — its name, component
class, typed configuration class and NAT strategy (read from the class) — at import
time. Everything downstream of the membership layer (:class:`~repro.workload.Scenario`,
the experiment matrix, the metric probes, the CLI) works against this registry, so
adding a protocol is a registration, not an edit to the scenario builder or the
collectors:

>>> from repro.membership.plugin import get_plugin
>>> get_plugin("gozar").nat_strategy
<NatStrategy.RELAY: 'relay'>
>>> get_plugin("croupier").estimates_ratio
True

The four built-in protocols live in modules that are imported lazily by
:func:`load_builtin_plugins` (called by the consumers above), keeping ``import
repro.membership`` cheap and cycle-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.errors import ConfigurationError
from repro.membership.base import NatStrategy, PeerSamplingService

#: Modules whose import registers the built-in plugins (order fixes registry order).
_BUILTIN_MODULES = (
    "repro.core.croupier",
    "repro.membership.cyclon",
    "repro.membership.gozar",
    "repro.membership.nylon",
)


@dataclass(frozen=True)
class ProtocolPlugin:
    """One registered peer-sampling protocol.

    Attributes
    ----------
    name:
        Registry key (``"croupier"``, ``"gozar"``, ...), also the CLI spelling.
    factory:
        The component class; ``factory(host, config)`` builds one service component
        for one node.
    config_cls:
        The typed per-protocol configuration dataclass; ``config_cls()`` must be the
        paper's default setup for this protocol.
    nat_strategy:
        How the protocol reaches private peers: the component class's
        ``nat_strategy``, read by :func:`register_protocol`.
    description:
        One line for ``repro matrix --list`` and the docs.
    """

    name: str
    factory: type
    config_cls: type
    nat_strategy: NatStrategy
    description: str = ""

    @property
    def estimates_ratio(self) -> bool:
        """Whether every node holds an estimate of ω: under Croupier's indirection
        only, because ``Croupier.sample()`` mixes its public and private views by
        ω̂ — the estimate is part of the strategy, not an extra feature."""
        return self.nat_strategy is NatStrategy.CROUPIER

    def default_config(self):
        """A fresh instance of the protocol's paper-default configuration."""
        return self.config_cls()

    def create(self, host, config=None):
        """Build one service component for ``host`` (``None`` config = paper default)."""
        return self.factory(host, config if config is not None else self.default_config())


#: The global protocol registry (filled by the protocol modules at import time).
_REGISTRY: Dict[str, ProtocolPlugin] = {}


def register_protocol(
    name: str,
    factory: type,
    config_cls: type,
    description: str = "",
) -> ProtocolPlugin:
    """Register a protocol plugin; called once at the bottom of each protocol module.

    ``factory`` must be a :class:`~repro.membership.base.PeerSamplingService`
    subclass; the plugin's ``nat_strategy`` is read from it, so the declaration can
    never disagree with the class.
    """
    if name in _REGISTRY:
        raise ConfigurationError(f"protocol {name!r} already registered")
    if not (isinstance(factory, type) and issubclass(factory, PeerSamplingService)):
        raise ConfigurationError(
            f"protocol {name!r}: factory must be a PeerSamplingService subclass, "
            f"got {factory!r}"
        )
    plugin = ProtocolPlugin(
        name=name,
        factory=factory,
        config_cls=config_cls,
        nat_strategy=factory.nat_strategy,
        description=description,
    )
    _REGISTRY[name] = plugin
    return plugin


def unregister_protocol(name: str) -> None:
    """Remove a plugin (tests only)."""
    _REGISTRY.pop(name, None)


def load_builtin_plugins() -> None:
    """Import the built-in protocol modules so their registrations run (idempotent)."""
    import importlib

    for module in _BUILTIN_MODULES:
        importlib.import_module(module)


def get_plugin(name: str) -> ProtocolPlugin:
    """Look up a plugin by name, loading the built-ins on first use."""
    if name not in _REGISTRY:
        load_builtin_plugins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown protocol {name!r}; registered: {protocol_names()}"
        ) from None


def protocol_names() -> List[str]:
    """Sorted names of every registered protocol (built-ins included)."""
    load_builtin_plugins()
    return sorted(_REGISTRY)


def all_plugins() -> List[ProtocolPlugin]:
    """Every registered plugin, sorted by name."""
    return [_REGISTRY[name] for name in protocol_names()]
