"""Exception types shared across the package."""


class WhamkitError(Exception):
    """Base class for all whamkit errors."""


class InvalidInputError(WhamkitError, ValueError):
    """Raised when an operation receives inputs violating its preconditions."""


class BehindCameraError(WhamkitError, ValueError):
    """Raised when a point to project lies at or behind the camera plane."""

    def __init__(self, message, landmark_indices=None):
        super().__init__(message)
        self.landmark_indices = landmark_indices


class NumericError(WhamkitError, ArithmeticError):
    """Raised on non-finite values in a computation, naming the source."""


class SynthesisError(WhamkitError, RuntimeError):
    """Raised when data synthesis cannot satisfy its constraints."""


class UndefinedMetricError(WhamkitError, ValueError):
    """Raised when a metric is undefined for the given inputs."""


class CheckpointError(WhamkitError, RuntimeError):
    """Raised on malformed or version-incompatible checkpoint files."""
