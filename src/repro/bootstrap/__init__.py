"""Bootstrap service: how a joining node learns its first public nodes.

The paper assumes a bootstrap server that returns a handful of public nodes to a joining
node (it seeds the initial public view). Scenarios read the
:class:`~repro.bootstrap.registry.BootstrapRegistry` directly when a node joins; the
request/response exchange a deployment would run is not simulated, because no measured
quantity depends on its two messages.
"""

from repro.bootstrap.registry import BootstrapRegistry

__all__ = ["BootstrapRegistry"]
