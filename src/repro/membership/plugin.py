"""The protocol plugin registry: how peer-sampling protocols join the experiment stack.

Every protocol module registers one :class:`ProtocolPlugin` — its name, component
class, typed configuration class and (derived) capability set — at import time.
Everything downstream of the membership layer (:class:`~repro.workload.Scenario`, the
experiment matrix, the metric probes, the CLI) works against this registry, so adding a
protocol is a registration, not an edit to the scenario builder or the collectors:

>>> from repro.membership.plugin import get_plugin
>>> from repro.membership.capabilities import RatioEstimating
>>> get_plugin("croupier").supports(RatioEstimating)
True

The five built-in protocols live in modules that are imported lazily by
:func:`load_builtin_plugins` (called by the consumers above), keeping ``import
repro.membership`` cheap and cycle-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Type

from repro.errors import CapabilityError, ConfigurationError
from repro.membership.capabilities import (
    Capability,
    OverlaySampling,
    capabilities_of,
    capability_name,
)

#: Modules whose import registers the built-in plugins (order fixes registry order).
_BUILTIN_MODULES = (
    "repro.core.croupier",
    "repro.membership.cyclon",
    "repro.membership.gozar",
    "repro.membership.nylon",
    "repro.membership.arrg",
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
    capabilities:
        The capability classes the built component implements, derived from the
        component class by :func:`register_protocol`.
    description:
        One line for ``repro matrix --list-protocols`` and the docs.
    nat_free_baseline:
        ``True`` for protocols the paper runs over public nodes only (Cyclon's "true
        randomness" baseline role); harnesses use it to pick the population shape.
    """

    name: str
    factory: type
    config_cls: type
    capabilities: frozenset = field(default_factory=frozenset)
    description: str = ""
    nat_free_baseline: bool = False

    def supports(self, capability: Type[Capability]) -> bool:
        return capability in self.capabilities

    def require(self, capability: Type[Capability], context: str = "") -> None:
        """Raise :class:`CapabilityError` (naming the capability) if unsupported."""
        if not self.supports(capability):
            suffix = f" (required by {context})" if context else ""
            raise CapabilityError(
                f"protocol {self.name!r} does not provide the "
                f"{capability_name(capability)!r} capability{suffix}; supported "
                f"protocols: {supporting(capability)}"
            )

    def default_config(self):
        """A fresh instance of the protocol's paper-default configuration."""
        return self.config_cls()

    def create(self, host, config=None):
        """Build one service component for ``host`` (``None`` config = paper default)."""
        return self.factory(host, config if config is not None else self.default_config())

    def capability_names(self) -> List[str]:
        return sorted(capability_name(cap) for cap in self.capabilities)


#: The global protocol registry (filled by the protocol modules at import time).
_REGISTRY: Dict[str, ProtocolPlugin] = {}


def register_protocol(
    name: str,
    factory: type,
    config_cls: type,
    description: str = "",
    nat_free_baseline: bool = False,
) -> ProtocolPlugin:
    """Register a protocol plugin; called once at the bottom of each protocol module.

    ``factory`` must be a class inheriting :class:`OverlaySampling`; the plugin's
    capabilities are exactly the capability ABCs it inherits, so a declaration can
    never disagree with the class.
    """
    if name in _REGISTRY:
        raise ConfigurationError(f"protocol {name!r} already registered")
    if not (isinstance(factory, type) and issubclass(factory, OverlaySampling)):
        raise ConfigurationError(
            f"protocol {name!r}: factory must be a class inheriting OverlaySampling, "
            f"got {factory!r}"
        )
    plugin = ProtocolPlugin(
        name=name,
        factory=factory,
        config_cls=config_cls,
        capabilities=capabilities_of(factory),
        description=description,
        nat_free_baseline=nat_free_baseline,
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


def supporting(capability: Type[Capability]) -> List[str]:
    """Names of the registered protocols advertising ``capability``."""
    return [p.name for p in all_plugins() if p.supports(capability)]
