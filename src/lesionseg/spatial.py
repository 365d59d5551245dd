"""Spatial fusion: prior-mask gating of the current frame plus a
single-frame attention read against the previous frame's key.

The previous prediction acts as spatial prior knowledge: multiplying it
into the current frame suppresses background before encoding, and the
resulting value map is retrieved through the same attention mechanics as
the temporal read, with the previous frame as a one-entry memory.
`apply_prior` is where the prior mask's range is checked; the
propagation state only carries the mask and key from step to step.
"""

from __future__ import annotations

from .autodiff import Tensor, mul
from .errors import ShapeError, ValidationError, is_probability
from .temporal import attention_read


def apply_prior(prior_mask: Tensor, frame: Tensor) -> Tensor:
    """Gate a frame with the previous prediction, at full image resolution."""
    if prior_mask.shape != frame.shape:
        raise ShapeError(f"mask shape {prior_mask.shape} != frame shape {frame.shape}")
    if not is_probability(prior_mask.data):
        lo, hi = prior_mask.data.min(), prior_mask.data.max()
        raise ValidationError(
            f"prior mask values in [{lo:.3g}, {hi:.3g}] outside [0, 1]; "
            "pass the sigmoided probability map, not logits")
    return mul(prior_mask, frame)


def spatial_read(query_key: Tensor, prev_key: Tensor, value_prior: Tensor) -> Tensor:
    """One-entry attention read: previous frame's key, prior-gated value."""
    return attention_read(query_key, [prev_key], [value_prior])
