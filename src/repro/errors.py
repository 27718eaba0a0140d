"""Exception hierarchy for the :mod:`repro` package.

All library-raised errors derive from :class:`ReproError`, so callers can
catch a single exception type at API boundaries.  Subclasses mark the layer
that detected the problem (simulator misuse vs. algorithmic invariant
violation vs. bad user input), which keeps tests precise about *what* failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class CongestModelViolation(ReproError):
    """An algorithm violated the CONGEST model.

    Raised by the network simulator when a protocol sends a message along a
    non-edge, exceeds the per-round per-edge capacity, or exceeds the allowed
    message width in machine words.
    """


class MemoryAccountingError(ReproError):
    """Misuse of a :class:`repro.congest.memory.MemoryMeter`.

    For instance freeing a key that was never stored, or storing a negative
    number of words.
    """


class InvariantViolation(ReproError):
    """An internal algorithmic invariant failed.

    These indicate a bug in the reproduction (or a probabilistic event that
    the paper's "with high probability" analysis excludes) and are asserted
    aggressively throughout the distributed algorithms.
    """


class InputError(ReproError):
    """Invalid user-supplied input (bad parameters, malformed graphs)."""


class ShardError(ReproError):
    """A shard worker failed, the pool protocol broke down, or a table
    image could not be attached (missing or truncated segment).

    Carries the worker-side traceback (when one was reported) so pool
    users see the real failure, not just a dead pipe.
    """


class RoutingFailure(ReproError):
    """The routing phase failed to deliver a message.

    A correct scheme never raises this; it exists so the router can fail
    loudly (with the partial path for debugging) instead of looping forever.
    """

    def __init__(self, message: str, path=None):
        super().__init__(message)
        self.path = list(path) if path is not None else []
