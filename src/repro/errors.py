"""Exception hierarchy for the Dalorex reproduction library.

All library-specific exceptions derive from :class:`ReproError`, so callers can
catch a single base class when they do not care about the specific failure mode.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """A machine or program configuration is inconsistent or unsupported."""


class GraphError(ReproError):
    """A graph is malformed or an operation received invalid graph inputs."""


class PlacementError(ReproError):
    """A data-placement request is invalid (unknown space, index out of range...)."""


class ProgramError(ReproError):
    """A Dalorex program definition is invalid (duplicate task, unknown array...)."""


class DataLocalityViolation(ReproError):
    """A task accessed data that is not local to the executing tile.

    In Dalorex every memory operation must be local; raising this error during
    simulation is how the library enforces (and tests) the data-local invariant.
    """


class SimulationError(ReproError):
    """The simulation reached an inconsistent state (deadlock, missing task...)."""


class InvariantViolation(SimulationError):
    """An engine-independent execution invariant was broken.

    Raised by the :class:`~repro.verify.tracing.InvariantTracer` when the
    always-on conservation checks fail at the end of a run: a spawned task was
    never consumed (or consumed twice), the aggregate counters disagree with
    the traced task flow, or work counters moved backwards across an epoch.
    A violation means the *simulator* miscounted, not that the workload is
    wrong -- it is the safety net differential testing relies on.
    """
