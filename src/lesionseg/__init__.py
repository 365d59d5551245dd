"""Memory-based semi-supervised video lesion segmentation at desk scale."""

__version__ = "0.1.0"

from .autodiff import Tensor, Tape, grad_check
from .blas import pin_one_thread
from .heap import pin_heap_policy

pin_one_thread()
pin_heap_policy()

__all__ = ["Tensor", "Tape", "grad_check", "__version__"]
