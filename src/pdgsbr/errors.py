"""Exception types shared across the package."""


class ParameterDomainError(ValueError):
    """A distribution parameter, or a categorical's weights, is outside its domain."""


class InvalidStateError(RuntimeError):
    """A sampler was handed a state with non-finite log-density."""


class DivergenceError(RuntimeError):
    """A simulated trajectory left the finite-value guard region.

    Carries the series index (when known) and the time index at which the
    trajectory first became unusable, both 0-based (the message counts from
    1), together with the finite prefix.
    """

    def __init__(self, index, series=None, prefix=None):
        self.index = index
        self.series = series
        self.prefix = prefix
        where = f"series {series + 1}, " if series is not None else ""
        super().__init__(f"trajectory diverged ({where}step {index + 1})")


class SingularDesignError(RuntimeError):
    """The precision matrix of a control-parameter draw is numerically singular."""

    def __init__(self, series, cond):
        self.series = series  # 0-based; the message counts from 1
        super().__init__(f"singular design for series {series + 1} (condition estimate {cond:.3g})")


class TruthUnavailableError(ValueError):
    """A diagnostic needs ground truth that the data set does not carry."""


class InsufficientSamplesError(ValueError):
    """Too few posterior samples for the requested summary, or a non-finite one."""


class ConfigError(ValueError):
    """An experiment configuration is malformed or internally inconsistent."""
