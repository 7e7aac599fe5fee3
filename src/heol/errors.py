"""Exception types shared across the package.

Every error raised by the library derives from :class:`HeolError`, so callers
can catch one base class at the loop or CLI level.
"""


class HeolError(Exception):
    """Base class for all library errors."""


class ConfigurationError(HeolError):
    """A scenario, channel, or estimator description violates its contract."""


class HorizonError(HeolError):
    """A trajectory was evaluated outside the interval its segments cover."""


class CapabilityError(HeolError):
    """A derivative order beyond the trajectory's declared maximum was requested."""


class IntervalError(HeolError):
    """An interval was given with non-increasing endpoints."""


class AlignmentError(HeolError):
    """Two windows that must share a sample grid do not."""


class InsufficientDataError(HeolError):
    """An estimate was requested on a window with fewer samples than it needs."""


class DegenerateRelationError(HeolError):
    """An implicit input/output relation has no usable output-derivative dependence."""


class SingularChannelError(HeolError):
    """The channel gain alpha(t) vanishes or blows up somewhere on the horizon."""


class FlatnessSingularityError(HeolError):
    """A nominal-control formula hit a point where the flat inversion degenerates."""


class SingularGainError(HeolError):
    """A feedback correction was requested with |alpha| too small to divide by."""


class StabilityError(HeolError):
    """Requested closed-loop poles are not strictly in the open left half plane."""


class DivergenceError(HeolError):
    """The integrated state left the trust region or produced non-finite values."""


class EmptyLogError(HeolError):
    """Metrics were requested on a log with no records."""


class ExportError(HeolError):
    """Writing a log or metrics file failed."""
