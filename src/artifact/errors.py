"""Exception types shared across the package, each with its CLI `exit_code`."""


class EstimationError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 4


class ShapeMismatch(EstimationError):
    """Array shapes are inconsistent with the operation's contract."""


class RankDeficient(EstimationError):
    """The regression system is under-determined or numerically degenerate."""


class NonFiniteSystem(EstimationError):
    """The regression system, its normal matrix or its solution is not finite."""


class IndexOutOfRange(EstimationError):
    """A parameter or sample index is outside the valid range."""


class TooFewPoints(EstimationError):
    """Not enough samples for the requested finite-difference stencil."""


class NonPositivePopulation(EstimationError):
    """Population constant must be positive."""


class DegenerateDenominator(EstimationError):
    """A state-dependent denominator evaluated to zero."""


class NonFiniteState(EstimationError):
    """Integration produced NaN or Inf."""


class UnderDetermined(EstimationError):
    """Estimation window is too short for the number of unknowns."""


class NegativeCompartment(EstimationError):
    """Reconstructed compartment count went negative (inconsistent data)."""

    exit_code = 3


class MissingColumn(EstimationError):
    """A required data column is absent."""

    exit_code = 3


class ParseError(EstimationError):
    """Malformed input file."""

    exit_code = 3


class NonMonotonicDates(EstimationError):
    """Date column is not strictly increasing after sorting."""

    exit_code = 3


class RegionTooSmall(EstimationError):
    """Sensor region contains fewer admissible nodes than requested."""


class AllZeroColumn(EstimationError):
    """Regressor column is identically zero."""


class NonPhysical(EstimationError):
    """Estimated inverse Reynolds number is not positive."""


class DimensionMismatch(EstimationError):
    """Field file size disagrees with manifest dimensions."""

    exit_code = 3


class MissingField(EstimationError):
    """A snapshot field file referenced by the manifest is missing."""

    exit_code = 3


class ConfigError(EstimationError):
    """Invalid or missing configuration key."""

    exit_code = 2
