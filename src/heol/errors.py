"""Exception types shared across the package.

Every error raised by the library derives from :class:`HeolError`, so callers
can catch one base class at the loop or CLI level.  A bad input of any kind
(a scenario, trajectory, window, interval, gain or derivative order that
breaks its contract) raises :class:`ConfigurationError`; the other types name
what can go wrong while a run is built or stepped.
"""


class HeolError(Exception):
    """Base class for all library errors."""


class ConfigurationError(HeolError):
    """An input violates its contract: a scenario, channel, trajectory, window, or argument."""


class SingularChannelError(HeolError):
    """A channel degenerates: its gain alpha(t) vanishes or blows up, or its flat inversion does."""


class DivergenceError(HeolError):
    """The integrated state left the trust region or produced non-finite values."""


class ExportError(HeolError):
    """Writing a log or metrics file failed."""
