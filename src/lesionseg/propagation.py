"""Mask propagation: seed the memory with the annotated first frame, then
predict every later frame from the memory read, the prior-gated spatial
read, and the coarse encoder tap.

The same step function serves training and inference. The previous soft
mask gates the current frame for the spatial read, whose key comes from
the previous frame's ungated encode; without the spatial branch no key
is kept and the first frame gets no ungated encode. State updates use
the model's own soft prediction, so a later frame's loss reaches earlier
predictions.
The decoder takes the fused feature with the current frame's skips.

`PropagationState` is everything one step hands the next: the memory bank
(``memory_capacity`` passes straight through, 0 meaning unlimited), the
previous frame's mask and ungated key (None without the spatial branch),
and the frame count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, sigmoid
from .data import Padding, unpad
from .errors import TrainingDivergedError, ValidationError, is_binary
from .model import SegmentationModel
from .spatial import apply_prior, spatial_read
from .temporal import MemoryBank, memory_read


@dataclass
class PropagationState:
    """Memory bank plus previous-frame prior; advances one frame per step."""

    memory: MemoryBank
    prev_mask: Tensor   # (1, H, W) probability map: the next frame's prior
    prev_key: Tensor | None   # (C/8, h, w) ungated key of the previous frame; None without SFM
    frame_index: int    # frames consumed so far


def init(model: SegmentationModel, frame: Tensor, gt_mask: Tensor) -> PropagationState:
    """Seed propagation with the first frame and its ground-truth mask."""
    if gt_mask is None:
        raise ValidationError("propagation needs the first frame's ground-truth mask")
    if gt_mask.shape != frame.shape:
        raise ValidationError(f"mask shape {gt_mask.shape} != frame shape {frame.shape}")
    if not is_binary(gt_mask.data):
        raise ValidationError("first-frame mask must be binary {0, 1}")
    seeded = model.encoder.encode(frame, mask=gt_mask)
    memory = MemoryBank(capacity=model.config.memory_capacity)
    memory.append(seeded.key, seeded.value)
    prev_key = model.encoder.encode(frame).key if model.config.use_sfm else None
    return PropagationState(memory=memory, prev_mask=gt_mask, prev_key=prev_key,
                            frame_index=1)


def step(model: SegmentationModel, state: PropagationState,
         frame: Tensor) -> tuple[PropagationState, Tensor]:
    """Predict one frame and fold it into the propagation state.

    Returns the advanced state and the (1, H, W) probability map, which
    is also the mask of the memory append and the next prior.
    """
    current = model.encoder.encode(frame)
    temporal = memory_read(state.memory, current.key)
    spatial = None
    if model.config.use_sfm:
        gated = model.encoder.encode(apply_prior(state.prev_mask, frame))
        spatial = spatial_read(current.key, state.prev_key, gated.value)
    fused = model.merge_branches(temporal, spatial, current.skips)
    pred = sigmoid(model.decoder.decode(fused, current.skips))
    if np.isnan(pred.data).any():   # the memory and the next prior would refuse it
        raise TrainingDivergedError(f"frame {state.frame_index}: the model predicted NaN")

    remembered = model.encoder.encode(frame, mask=pred)
    state.memory.append(remembered.key, remembered.value)
    prev_key = current.key if model.config.use_sfm else None
    return PropagationState(memory=state.memory, prev_mask=pred, prev_key=prev_key,
                            frame_index=state.frame_index + 1), pred


def propagate(model: SegmentationModel, frames: list[Tensor], first_gt: Tensor,
              padding: Padding = Padding()) -> list[np.ndarray]:
    """Predict frames 2..N given the first frame's mask.

    Returns N-1 probability maps as numpy arrays, with `padding` cropped
    off. Every frame must be finite and shaped like frame 0: one NaN
    pixel would reach every later prediction through the memory. Overflow raises no numpy warning here:
    its NaN prediction is refused by `step`.
    """
    if len(frames) < 2:
        raise ValidationError(f"propagation needs at least 2 frames, got {len(frames)}")
    for t, frame in enumerate(frames):
        if frame.shape != frames[0].shape:
            raise ValidationError(
                f"frame {t} has shape {frame.shape}, frame 0 has {frames[0].shape}")
        if not np.isfinite(frame.data).all():
            raise ValidationError(f"frame {t} has non-finite values")
    preds: list[np.ndarray] = []
    with np.errstate(over="ignore", invalid="ignore"):
        state = init(model, frames[0], first_gt)
        for frame in frames[1:]:
            state, pred = step(model, state, frame)
            preds.append(unpad(pred.data, padding))
    return preds
