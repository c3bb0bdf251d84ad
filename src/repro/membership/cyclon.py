"""Cyclon: the classic gossip peer-sampling protocol (Voulgaris et al. [6]).

The paper uses Cyclon as the *baseline for true randomness*: its experiments run Cyclon
over public nodes only, because plain Cyclon cannot shuffle with nodes behind NATs (its
view exchanges would simply be filtered by the target's NAT). The implementation is the
standard enhanced shuffle — tail selection, push-pull exchange and swapper merging, the
same policies the paper fixes for every compared protocol — which is exactly the shared
shuffle of :class:`~repro.membership.base.PeerSamplingService` with no hook overridden.
"""

from __future__ import annotations

from typing import Optional

from repro.membership.base import PeerSamplingService, PssConfig
from repro.membership.plugin import register_protocol
from repro.simulator.host import Host


class Cyclon(PeerSamplingService):
    """The classic single-view shuffle. NAT-oblivious by design."""

    def __init__(self, host: Host, config: Optional[PssConfig] = None) -> None:
        super().__init__(host, config or PssConfig(), name="Cyclon")

    def on_round(self) -> None:
        self.view.increase_ages()
        self._start_exchange()


register_protocol(
    "cyclon",
    Cyclon,
    PssConfig,
    description="classic enhanced shuffle (tail selection, swapper merge); the paper's "
    "NAT-oblivious true-randomness baseline, run over public nodes only",
)
