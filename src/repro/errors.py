"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class.  Subsystems raise the most
specific subclass that applies; constructors accept a human-readable
message plus optional structured context that is appended to ``str()``
output for debugging.
"""

from __future__ import annotations

from typing import Any


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""

    def __init__(self, message: str, **context: Any) -> None:
        self.context = dict(context)
        if context:
            details = ", ".join(f"{key}={value!r}" for key, value in context.items())
            message = f"{message} ({details})"
        super().__init__(message)


class ConfigurationError(ReproError):
    """A component was constructed or configured with invalid parameters."""


class TopologyError(ReproError):
    """Invalid topology construction or lookup (unknown AS, org, prefix...)."""


class RoutingError(TopologyError):
    """BGP routing failure: no route, malformed announcement, etc."""


class SimulationError(ReproError):
    """A propagation engine reached an inconsistent state."""


class CrawlerError(ReproError):
    """The measurement/crawler subsystem failed."""


class AnalysisError(ReproError):
    """An analysis routine received data it cannot process."""


class AttackError(ReproError):
    """An attack plan could not be constructed or executed."""


class DataGenError(ReproError):
    """Synthetic data generation failed or was mis-parameterized."""
