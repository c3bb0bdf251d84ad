"""Configuration for the Croupier protocol."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.membership.base import PssConfig


@dataclass
class CroupierConfig(PssConfig):
    """Croupier parameters on top of the common PSS configuration.

    Attributes
    ----------
    local_history_alpha:
        α — how many past rounds of shuffle-request hit counts a public node keeps when
        computing its own local estimate (paper default for most experiments: 25).
    neighbour_history_gamma:
        γ — estimates received from other public nodes older than this many rounds are
        discarded (paper default for most experiments: 50).
    max_estimates_per_message:
        Upper bound on the number of neighbour estimates piggy-backed on each shuffle
        request/response, besides a public sender's own; :mod:`repro.wire` sizes them.
        The paper uses 10.
    pending_shuffle_timeout_rounds:
        How many rounds an unanswered shuffle request is remembered before its state is
        discarded (bounds memory under message loss and churn).
    """

    local_history_alpha: int = 25
    neighbour_history_gamma: int = 50
    max_estimates_per_message: int = 10
    pending_shuffle_timeout_rounds: int = 3

    def validate(self) -> None:
        super().validate()
        if self.local_history_alpha <= 0:
            raise ConfigurationError(
                f"local_history_alpha must be positive, got {self.local_history_alpha}"
            )
        if self.neighbour_history_gamma <= 0:
            raise ConfigurationError(
                "neighbour_history_gamma must be positive, got "
                f"{self.neighbour_history_gamma}"
            )
        if self.max_estimates_per_message < 0:
            raise ConfigurationError(
                "max_estimates_per_message must be non-negative, got "
                f"{self.max_estimates_per_message}"
            )
        if self.pending_shuffle_timeout_rounds <= 0:
            raise ConfigurationError(
                "pending_shuffle_timeout_rounds must be positive, got "
                f"{self.pending_shuffle_timeout_rounds}"
            )
