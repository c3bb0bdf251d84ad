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
  Croupier's payload); also the single-view protocols' shuffle messages and
  :class:`NatStrategy`, the one fact each protocol declares about how it reaches
  private peers.
* :mod:`~repro.membership.plugin` — the :class:`ProtocolPlugin` registry every
  protocol module registers into; :class:`~repro.workload.Scenario`, the experiment
  matrix and the CLI all resolve protocols — and their strategy — through it.
* :mod:`~repro.membership.cyclon`, :mod:`~repro.membership.nylon`,
  :mod:`~repro.membership.gozar` — the baseline protocols the paper compares against.
"""

from repro.membership.base import NatStrategy, PeerSamplingService
from repro.membership.descriptor import NodeDescriptor
from repro.membership.plugin import (
    ProtocolPlugin,
    all_plugins,
    get_plugin,
    load_builtin_plugins,
    protocol_names,
    register_protocol,
    unregister_protocol,
)
from repro.membership.policies import SelectionPolicy
from repro.membership.view import PartialView

__all__ = [
    "NatStrategy",
    "NodeDescriptor",
    "PartialView",
    "PeerSamplingService",
    "ProtocolPlugin",
    "SelectionPolicy",
    "all_plugins",
    "get_plugin",
    "load_builtin_plugins",
    "protocol_names",
    "register_protocol",
    "unregister_protocol",
]
