"""Training loop: one 3-frame clip per step, cross-entropy on the two
predicted frames, plain SGD with optional momentum.

The clip stream, parameter init, and update order are all driven by the
run seed, so a (config, seed) pair reproduces the checkpoint bit for bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tape, Tensor
from .config import RunConfig
from .data import Clip, VideoSequence, sample_clips
from .errors import TrainingDivergedError, ValidationError
from .metrics import ce_loss
from .model import SegmentationModel
from .propagation import init, step

LOSS_WINDOW = 20   # steps per trailing mean in the training log


class SGD:
    """Stochastic gradient descent; classic momentum when momentum > 0."""

    def __init__(self, learning_rate: float, momentum: float = 0.0):
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.velocity: dict[str, np.ndarray] = {}

    def apply(self, params: dict[str, Tensor]) -> None:
        for name, p in params.items():
            if p.grad is None:
                continue
            g = p.grad
            if self.momentum > 0.0:
                v = self.velocity.get(name)
                v = g.copy() if v is None else self.momentum * v + g
                self.velocity[name] = v
                g = v
            p.data = p.data - self.learning_rate * g


@dataclass
class TrainResult:
    model: SegmentationModel
    losses: list[float] = field(default_factory=list)
    rng: np.random.Generator | None = None

    @property
    def steps(self) -> int:
        return len(self.losses)


def smoothed(losses: list[float]) -> float:
    """Mean of the last LOSS_WINDOW losses (of all of them while fewer)."""
    return float(np.mean(losses[-LOSS_WINDOW:]))


def clip_loss(model: SegmentationModel, clip: Clip):
    """Forward one clip and return (loss tensor, per-frame predictions)."""
    state = init(model, clip.frames[0], clip.masks[0])
    preds = []
    for t in (1, 2):
        state, pred = step(model, state, clip.frames[t])
        preds.append(pred)
    loss = ce_loss(list(zip(preds, clip.masks[1:])))
    return loss, preds


def _eligible(sequences: list[VideoSequence]) -> list[VideoSequence]:
    keep = []
    for seq in sequences:
        if seq.masks is None:
            warnings.warn(f"sequence {seq.name} has no masks; skipped for training")
        elif len(seq) < 3:
            warnings.warn(f"sequence {seq.name} has {len(seq)} < 3 frames; "
                          "skipped for training")
        else:
            keep.append(seq)
    return keep


def train(config: RunConfig, sequences: list[VideoSequence],
          log=None) -> TrainResult:
    """Run config.steps SGD updates, calling log (if given) with the TrainResult after each."""
    usable = _eligible(sequences)
    if not usable:
        raise ValidationError("no trainable sequence (need >= 3 frames with masks)")
    model = SegmentationModel(config, seed=config.seed)
    rng = np.random.default_rng([config.seed, 1])   # clip-sampling stream
    streams = [sample_clips(seq, rng) for seq in usable]
    optimizer = SGD(config.learning_rate, config.momentum)
    params = model.parameters()
    result = TrainResult(model=model, rng=rng)
    for step_idx in range(config.steps):
        clip = next(streams[int(rng.integers(len(streams)))])
        for p in params.values():
            p.zero_grad()
        with Tape() as tape:
            try:
                loss, _ = clip_loss(model, clip)
                value = loss.item()
            except TrainingDivergedError:   # a NaN prediction, before any loss
                value = float("nan")
            if not np.isfinite(value):
                tail = ", ".join(f"{v:.4g}" for v in result.losses[-5:])
                raise TrainingDivergedError(
                    f"non-finite loss {value} at step {step_idx} on clip "
                    f"{clip.sequence}[{clip.start}:{clip.start + 3}]; "
                    f"recent losses: [{tail}]; lower the learning rate")
            tape.backward(loss)
        optimizer.apply(params)
        result.losses.append(value)
        if log is not None:
            log(result)
    return result
