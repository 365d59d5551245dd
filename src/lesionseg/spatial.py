"""Spatial fusion: prior-mask gating of the current frame plus a
single-frame attention read against the previous frame's key.

The previous prediction acts as spatial prior knowledge: multiplying it
into the current frame suppresses background before encoding, and the
resulting value map is retrieved through the same attention mechanics as
the temporal read, with the previous frame as a one-entry memory.
"""

from __future__ import annotations

from dataclasses import dataclass

from .autodiff import Tensor, mul
from .errors import ShapeError, ValidationError
from .temporal import attention_read


@dataclass
class PriorState:
    """What the previous frame hands to the current step."""

    prev_mask: Tensor    # (1, H, W) probability map in [0, 1]
    prev_key: Tensor     # (C/8, h, w), from the ungated encode of the previous frame

    def __post_init__(self):
        if self.prev_mask.data.min() < 0.0 or self.prev_mask.data.max() > 1.0:
            raise ValidationError("prior mask values must lie in [0, 1]")


def apply_prior(prior_mask: Tensor, frame: Tensor) -> Tensor:
    """Gate a frame with the previous prediction, at full image resolution."""
    if prior_mask.shape != frame.shape:
        raise ShapeError(f"mask shape {prior_mask.shape} != frame shape {frame.shape}")
    lo, hi = prior_mask.data.min(), prior_mask.data.max()
    if lo < 0.0 or hi > 1.0:
        raise ValidationError(
            f"prior mask values in [{lo:.3g}, {hi:.3g}] outside [0, 1]; "
            "pass the sigmoided probability map, not logits")
    return mul(prior_mask, frame)


def spatial_read(query_key: Tensor, prev_key: Tensor, value_prior: Tensor) -> Tensor:
    """One-entry attention read: previous frame's key, prior-gated value."""
    return attention_read(query_key, [prev_key], [value_prior])
