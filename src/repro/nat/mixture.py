"""NAT-type mixtures: heterogeneous gateway populations.

The paper's evaluation does not run one NAT behaviour for every gateway — it runs
against the *measured distribution* of NAT types its authors observed in deployed
networks (the NATCracker-style measurement cited by the paper: cone NATs dominate,
with address-and-port-dependent "symmetric" boxes a sizeable minority). A
:class:`NatMixture` captures exactly that: a named weighting over the standard
:class:`~repro.nat.types.NatProfile` vocabulary, sampled deterministically per
gateway from a seeded random stream.

Two mixtures are registered by default:

* ``paper`` — the measured NAT-type distribution the paper evaluates against;
* ``uniform`` — every standard profile equally likely (a stress mixture for tests).

Mixtures are immutable and validated at construction, so a registry entry can be
shared freely across scenarios, worker processes and matrix cells.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.errors import ConfigurationError
from repro.nat.types import NAMED_PROFILES, NatProfile


@dataclass(frozen=True)
class NatMixture:
    """A weighted distribution over named NAT profiles.

    ``weights`` maps profile names (keys of :data:`~repro.nat.types.NAMED_PROFILES`)
    to positive weights; they need not sum to one — sampling normalises. Sampling is
    deterministic given the RNG: one ``rng.random()`` draw per gateway, resolved
    against the precomputed cumulative table, so the assignment of NAT types to
    gateways is a pure function of the scenario seed.
    """

    name: str
    weights: Tuple[Tuple[str, float], ...]
    _cumulative: Tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.weights:
            raise ConfigurationError(f"NAT mixture {self.name!r} has no weights")
        total = 0.0
        for profile_name, weight in self.weights:
            if profile_name not in NAMED_PROFILES:
                raise ConfigurationError(
                    f"NAT mixture {self.name!r} references unknown profile "
                    f"{profile_name!r}; known profiles: {sorted(NAMED_PROFILES)}"
                )
            if not weight > 0.0:
                raise ConfigurationError(
                    f"NAT mixture {self.name!r} has non-positive weight "
                    f"{weight!r} for profile {profile_name!r}"
                )
            total += weight
        names = [profile_name for profile_name, _ in self.weights]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"NAT mixture {self.name!r} lists a profile more than once"
            )
        cumulative = tuple(
            itertools.accumulate(weight / total for _, weight in self.weights)
        )
        object.__setattr__(self, "_cumulative", cumulative)

    def sample_name(self, rng: random.Random) -> str:
        """Draw one profile name (exactly one ``rng.random()`` consumption)."""
        draw = rng.random()
        for (profile_name, _), bound in zip(self.weights, self._cumulative):
            if draw < bound:
                return profile_name
        return self.weights[-1][0]  # guard against draw == 1.0 rounding

    def sample(self, rng: random.Random) -> Tuple[str, NatProfile]:
        """Draw one ``(profile_name, NatProfile)`` pair."""
        profile_name = self.sample_name(rng)
        return profile_name, NAMED_PROFILES[profile_name]()


#: The paper's measured NAT-type distribution: endpoint-independent-mapping cone
#: NATs dominate (restricted-cone filtering most common), symmetric NATs are a
#: ~15 % minority — the skew the paper's heterogeneous-gateway runs assume.
PAPER_NAT_MIXTURE = NatMixture(
    name="paper",
    weights=(
        ("full_cone", 0.24),
        ("restricted_cone", 0.33),
        ("port_restricted_cone", 0.28),
        ("symmetric", 0.15),
    ),
)

#: Every standard profile equally likely — a stress mixture for tests and sweeps.
UNIFORM_NAT_MIXTURE = NatMixture(
    name="uniform",
    weights=tuple((profile_name, 1.0) for profile_name in sorted(NAMED_PROFILES)),
)

#: Named mixtures usable as matrix-axis values (``--nat-mixtures``).
NAT_MIXTURES: Dict[str, NatMixture] = {
    mixture.name: mixture for mixture in (PAPER_NAT_MIXTURE, UNIFORM_NAT_MIXTURE)
}

