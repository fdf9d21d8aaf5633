"""Category-attention top-down feature aggregation on a small autodiff engine."""

from .errors import (CheckpointError, ConfigError, DatasetError, DivergedError,
                     GraphError, ShapeError)
from .gradcheck import finite_diff_grad, max_rel_error
from .tensor import Tensor, backward, no_grad

__version__ = "0.1.0"

__all__ = [
    "Tensor", "backward", "no_grad",
    "finite_diff_grad", "max_rel_error",
    "ShapeError", "ConfigError", "DatasetError", "CheckpointError", "DivergedError",
    "GraphError", "__version__",
]
