"""Croupier: NAT-aware peer sampling without relaying — paper reproduction.

This package is a complete, self-contained reproduction of the system described in
*"Shuffling with a Croupier: Nat-Aware Peer-Sampling"* (Dowling & Payberah, ICDCS 2012).
It contains:

``repro.simulator``
    A Kompics-like discrete-event simulator: components, channels, timers and a
    NAT-aware datagram network model with configurable latency and loss.

``repro.net``
    Address and endpoint abstractions (public vs. private IPs, node identities).

``repro.nat``
    An emulation of NAT gateways: mapping, filtering and allocation policies, UDP
    mapping timeouts, UPnP IGD port mapping, firewalls, plus the hole-punching and
    relaying traversal primitives used by the baseline protocols.

``repro.natid``
    The paper's minimal distributed NAT-type identification protocol (Algorithm 1).

``repro.membership``
    Shared peer-sampling machinery (descriptors, bounded views, selection policy, the
    declared NAT strategy) and the baseline protocols Cyclon, Nylon and Gozar.

``repro.core``
    Croupier itself: split public/private views, croupier shuffling (Algorithm 2) and
    the distributed public/private ratio estimator and sampler (Algorithm 3).

``repro.workload``
    Scenario builders: Poisson joins, steady-state churn, catastrophic failure and
    dynamic public/private ratio schedules.

``repro.metrics``
    Observation utilities: estimation error, overlay graph statistics (in-degree,
    path length, clustering coefficient), partition size and traffic overhead.

``repro.experiments``
    One module per figure of the paper's evaluation, each of which regenerates the
    corresponding series.
"""

from repro.version import __version__

__all__ = ["__version__"]
