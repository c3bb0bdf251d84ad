"""Peer-sampling machinery shared by Croupier and the baseline protocols.

The module layout mirrors the design space described in the gossip peer-sampling
literature the paper builds on (Jelasity et al. [7], Cyclon [6]):

* :mod:`~repro.membership.descriptor` — node descriptors: an address, the node's NAT
  type, an age in rounds, and optional protocol-specific payload (e.g. Gozar's relay
  parents).
* :mod:`~repro.membership.view` — the bounded partial view with the operations every
  protocol needs (ageing, tail selection, random subsets, the paper's ``updateView``
  merge).
* :mod:`~repro.membership.policies` — the named node-selection policies, so experiments
  can ablate the paper's *tail* selection (exchange and merge are fixed: push-pull and
  *swapper*, for all compared protocols).
* :mod:`~repro.membership.base` — :class:`PeerSamplingService`, the one push-pull
  shuffle every protocol runs (round timer, view, outstanding requests, swapper merge,
  sample API) and the hooks where the protocols differ (routing, own descriptor,
  Croupier's payload); also the single-view protocols' shuffle messages.
* :mod:`~repro.membership.capabilities` — the capability interfaces
  (:class:`OverlaySampling`, :class:`RatioEstimating`, :class:`NatAware`) the
  experiment layers query instead of probing concrete protocol classes.
* :mod:`~repro.membership.plugin` — the :class:`ProtocolPlugin` registry every
  protocol module registers into; :class:`~repro.workload.Scenario`, the experiment
  matrix and the CLI all resolve protocols through it.
* :mod:`~repro.membership.cyclon`, :mod:`~repro.membership.nylon`,
  :mod:`~repro.membership.gozar`, :mod:`~repro.membership.arrg` — the baseline
  protocols the paper compares against (and ARRG from related work).
"""

from repro.membership.base import PeerSamplingService
from repro.membership.capabilities import (
    CAPABILITIES,
    Capability,
    NatAware,
    OverlaySampling,
    RatioEstimating,
    capability_name,
)
from repro.membership.descriptor import NodeDescriptor
from repro.membership.plugin import (
    ProtocolPlugin,
    all_plugins,
    get_plugin,
    load_builtin_plugins,
    protocol_names,
    register_protocol,
    supporting,
    unregister_protocol,
)
from repro.membership.policies import SelectionPolicy
from repro.membership.view import PartialView

__all__ = [
    "CAPABILITIES",
    "Capability",
    "NatAware",
    "NodeDescriptor",
    "OverlaySampling",
    "PartialView",
    "PeerSamplingService",
    "ProtocolPlugin",
    "RatioEstimating",
    "SelectionPolicy",
    "all_plugins",
    "capability_name",
    "get_plugin",
    "load_builtin_plugins",
    "protocol_names",
    "register_protocol",
    "supporting",
    "unregister_protocol",
]
