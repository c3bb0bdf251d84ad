"""Exception hierarchy used across the repro package.

All library-specific exceptions derive from :class:`ReproError` so that callers can
catch everything raised by this package with a single ``except`` clause while still
being able to distinguish configuration problems from runtime simulation problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all exceptions raised by the repro package."""


class ConfigurationError(ReproError):
    """A component, protocol or experiment was configured with invalid parameters."""


class SimulationError(ReproError):
    """The simulator reached an inconsistent state (e.g. event scheduled in the past)."""


class NetworkError(ReproError):
    """A network-level operation failed (unknown endpoint, unbound port, ...)."""


class NatError(ReproError):
    """A NAT-level operation failed (mapping table exhaustion, invalid policy, ...)."""


class ProtocolError(ReproError):
    """A protocol implementation detected a violated invariant."""


class ExperimentError(ReproError):
    """An experiment harness was driven with inconsistent parameters."""
