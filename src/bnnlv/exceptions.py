"""Shared exception types."""


class ConfigError(ValueError):
    """A configuration value is missing, malformed, or out of range."""


class CsvParseError(ValueError):
    """A CSV file could not be parsed; the message carries the line number."""


class DivergenceError(RuntimeError):
    """Optimization produced a non-finite objective, gradient or variance.

    Carries whatever history was accumulated before the failure so callers
    can inspect the trajectory, and ``diagnostics``: for a failure inside
    ``train.optimize``, the ``epoch`` and, where one block is at fault, the
    ``block`` name.
    """

    def __init__(self, message, history=None, diagnostics=None):
        super().__init__(message)
        self.history = history
        self.diagnostics = diagnostics or {}
