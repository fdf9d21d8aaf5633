"""Exception types shared across the package."""


class ShapeError(ValueError):
    """An operand has a shape the operation cannot accept."""


class ConfigError(ValueError):
    """A configuration value is missing, malformed, or out of range."""


class DatasetError(ValueError):
    """A dataset directory holds arrays or metadata that do not form a dataset."""


class CheckpointError(RuntimeError):
    """A checkpoint file is truncated, corrupt, or from an unknown format."""


class GraphError(RuntimeError):
    """A backward pass reached a graph that an earlier backward consumed."""


class DivergedError(RuntimeError):
    """Training produced a non-finite loss, gradient or parameter and was aborted."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}
