"""Exception types shared across the package."""


class StochFlowError(Exception):
    """Base class for all package errors."""


class OrderingError(StochFlowError, ValueError):
    """A time pair violates s <= t."""


class ResolutionError(StochFlowError, ValueError):
    """A dyadic query exceeds the configured level or horizon."""


class HorizonError(ResolutionError):
    """A query, or the noise history it needs, reaches past the path horizon."""


class AlignmentError(StochFlowError, ValueError):
    """A time is not representable on the required grid level."""


class StateError(StochFlowError, ValueError):
    """A state vector contains non-finite entries or has the wrong shape."""


class DivergenceError(StochFlowError, RuntimeError):
    """A trajectory blew past the norm guard."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class ConfigError(StochFlowError, ValueError):
    """Invalid model or experiment configuration."""


class EnumerationLimitError(StochFlowError, ValueError):
    """An exact enumeration would exceed the configured depth limit."""


class UnsupportedCaseError(StochFlowError, ValueError):
    """The requested construction is only defined for a restricted model class."""


class MeasurabilityError(StochFlowError, ValueError):
    """A function or random measure violates a measurability precondition."""

    def __init__(self, message, block=None):
        super().__init__(message)
        self.block = block
