"""Exception types shared across the package.

Every error raised by the library derives from :class:`HeolError`, so callers
can catch one base class at the loop or CLI level.  A bad input of any kind
(a scenario, trajectory, window, interval, gain or derivative order that
breaks its contract) raises :class:`ConfigurationError`; the other types name
what can go wrong while a run is built or stepped.  ``_number`` and ``_count``
check a number and a count, for the scenario schema and the API alike.
"""

import functools
import math

import numpy as np


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


class _Rule:
    """A JSON value checked by ``load(value, path)``, which returns it as a ``type``; ``_Rule(type, load)``
    is a JSON scalar."""

    type = None
    dump = staticmethod(lambda value: value)

    def __init__(self, kind: type, load):
        self.type, self.load = kind, load

    def typed(self, value, path: str):
        return value if type(value) is self.type else self.load(value, path)


@functools.partial(_Rule, float)
def _number(value, path: str) -> float:
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise ConfigurationError(f"{path} must be a finite number, got {value!r}")


@functools.partial(_Rule, int)
def _count(value, path: str) -> int:
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise ConfigurationError(f"{path} must be an integer, got {value!r}")
