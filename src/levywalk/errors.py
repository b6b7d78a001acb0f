"""Shared exception types."""


class ConfigError(ValueError):
    """Malformed configuration document. Carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ValidationError(ValueError):
    """A config field parsed but is out of range. Carries the field name."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


class PathTooShort(RuntimeError):
    """A subordinator path ends before the queried physical time."""


class TrajectoryExhausted(RuntimeError):
    """A trajectory ends before the queried time; it draws no further steps."""


class DegenerateInput(ValueError):
    """Estimator input carries no usable variation."""


class InsufficientData(ValueError):
    """Too few points to fit."""
