"""Exception taxonomy shared across the package."""

from __future__ import annotations


class ChainLogicError(Exception):
    """Base class for every error raised by this package."""


class KindMismatchError(ChainLogicError):
    """Tensor product of operands whose kinds do not combine."""


class DimensionMismatchError(ChainLogicError):
    """Operands live in different Hilbert spaces."""


class DegenerateSpanError(ChainLogicError):
    """Span construction received linearly dependent vectors."""


class PvmOrthogonalityError(ChainLogicError):
    """Members of a projective decomposition are not pairwise orthogonal."""


class PvmCompletenessError(ChainLogicError):
    """Members of a projective decomposition do not sum to the identity."""


class DuplicateLabelError(ChainLogicError):
    """Labels within one decomposition or sibling set must be unique."""


class ScheduleError(ChainLogicError):
    """Measurement schedule is missing a branch, has the wrong length, or
    leaves reachable probability unaccounted for."""


class FrameworkViolationError(ChainLogicError):
    """Reasoning stepped outside a single consistent framework.

    Carries ``worst`` (magnitude of the largest off-diagonal consistency
    entry) when raised for an inconsistent family, or ``path`` when raised
    for a branch reference foreign to the tree at hand.
    """

    def __init__(self, message: str, *, worst: float | None = None,
                 path: tuple[str, ...] | None = None):
        super().__init__(message)
        self.worst = worst
        self.path = path


class VacuousPremiseError(ChainLogicError):
    """Counterfactual premise carries zero probability in the given tree."""


class NotAHardyStateError(ChainLogicError):
    """Amplitude triple does not define a strict Hardy state."""


class DegenerateBasisError(ChainLogicError):
    """A derived measurement basis is undefined for these amplitudes."""


class InternalConsistencyError(ChainLogicError):
    """A numerical result violated a structural guarantee, for example a
    scenario tree that fails its own consistency check."""


class NumericalFaultError(InternalConsistencyError):
    """Floating-point error broke a guarantee of the construction: a
    probability below the negativity floor or a measurement unitary that
    is not unitary."""


class ConfigError(ChainLogicError):
    """Run configuration failed to parse or validate."""
