"""Small convolutional encoder/decoder and the key/value projection heads.

The encoder is a stack of downsampling stages (strided 3x3 conv followed by
one residual 3x3 block), trainable from scratch at desk scale.  The last
stage feature is projected by two 1x1 heads into a low-channel matching key
and a wider content value.  The decoder walks back up through the skip
features and emits a single-channel logit map at input resolution.

A mask channel is always part of the encoder input: frames encoded for the
memory bank carry their (predicted or ground-truth) mask there, plain
frames carry zeros.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .autodiff import Tensor, concat, conv2d, relu, upsample2x
from .errors import ShapeError, ValidationError, is_probability

if TYPE_CHECKING:
    from .model import ModelConfig


IN_CHANNELS = 1   # grayscale frames; the encoder adds one mask channel


@dataclass
class FrameEmbedding:
    """Per-frame encoder outputs."""

    key: Tensor                # (C/8, h, w)
    value: Tensor              # (C/2, h, w)
    skips: list[Tensor] = field(default_factory=list)   # per-stage maps, shallow to deep


class Initializer:
    """Seeded uniform +-sqrt(6/(fan_in+fan_out)) parameter factory."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def conv(self, cout: int, cin: int, kh: int, kw: int) -> Tensor:
        fan_in, fan_out = cin * kh * kw, cout * kh * kw
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return Tensor(self.rng.uniform(-limit, limit, (cout, cin, kh, kw)), requires_grad=True)

    def dense(self, nout: int, nin: int) -> Tensor:
        limit = np.sqrt(6.0 / (nin + nout))
        return Tensor(self.rng.uniform(-limit, limit, (nout, nin)), requires_grad=True)

    @staticmethod
    def bias(n: int) -> Tensor:
        return Tensor(np.zeros(n), requires_grad=True)


class Conv:
    """A conv2d layer: weight, bias and stride; its padding follows from its kernel."""

    def __init__(self, init: Initializer, cin: int, cout: int, k: int, stride: int = 1):
        self.weight = init.conv(cout, cin, k, k)
        self.bias = Initializer.bias(cout)
        self.stride = stride

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, self.bias, stride=self.stride)


def named_parameters(module: object, prefix: str = "") -> dict[str, Tensor]:
    """Every Tensor under a module's attributes, keyed by dotted attribute path.

    Attributes are walked in assignment order, so construction order is
    parameter order. Item i of a list attribute ``x`` is named ``x{i}``.
    None, numbers, tuples and config objects hold no parameter.
    """
    out: dict[str, Tensor] = {}
    for name, value in vars(module).items():
        items = enumerate(value) if isinstance(value, list) else [("", value)]
        for index, item in items:
            if isinstance(item, Tensor):
                out[f"{prefix}{name}{index}"] = item
            elif hasattr(item, "__dict__"):
                out.update(named_parameters(item, f"{prefix}{name}{index}."))
    return out


class _Stage:
    """One downsampling stage: strided conv then a residual 3x3 block."""

    def __init__(self, init: Initializer, cin: int, cout: int):
        self.down = Conv(init, cin, cout, 3, stride=2)
        self.res1 = Conv(init, cout, cout, 3)
        self.res2 = Conv(init, cout, cout, 3)

    def __call__(self, x: Tensor) -> Tensor:
        h = relu(self.down(x))
        return relu(h + self.res2(relu(self.res1(h))))


class Encoder:
    """Configurable strided-conv encoder with key/value projection heads."""

    def __init__(self, config: ModelConfig, init: Initializer):
        self.config = config
        channels = [IN_CHANNELS + 1] + list(config.stage_channels)  # +1 mask channel
        self.stage = [_Stage(init, channels[i], channels[i + 1])
                      for i in range(len(config.stage_channels))]
        c = config.feature_channels
        self.key_head = Conv(init, c, config.key_channels, 1)
        self.value_head = Conv(init, c, config.value_channels, 1)

    def encode(self, frame: Tensor, mask: Tensor | None = None) -> FrameEmbedding:
        """Embed one (1, H, W) frame, optionally carrying a mask channel."""
        if frame.ndim != 3 or frame.shape[0] != IN_CHANNELS:
            raise ShapeError(f"expected ({IN_CHANNELS}, H, W) frame, got {frame.shape}")
        _, h0, w0 = frame.shape
        stride = self.config.total_stride
        if h0 % stride or w0 % stride:
            raise ShapeError(
                f"frame size {h0}x{w0} not divisible by total stride {stride}; "
                f"pad to a multiple of {stride} first")
        if mask is None:
            mask = Tensor(np.zeros((1, h0, w0)))
        else:
            if mask.shape != (1, h0, w0):
                raise ShapeError(f"mask shape {mask.shape} != (1, {h0}, {w0})")
            if not is_probability(mask.data):
                raise ValidationError("mask channel values must lie in [0, 1]")
        x = concat([frame, mask], axis=0)
        skips = []
        for stage in self.stage:
            x = stage(x)
            skips.append(x)
        return FrameEmbedding(
            key=self.key_head(skips[-1]),
            value=self.value_head(skips[-1]),
            skips=skips,
        )


class Decoder:
    """Upsample-concat-conv blocks from the fused feature back to image size."""

    def __init__(self, config: ModelConfig, init: Initializer):
        widths = list(config.stage_channels)
        cin = config.value_channels
        self.block: list[Conv] = []
        for skip_width in widths[-2::-1]:   # block output width tracks its skip
            self.block.append(Conv(init, cin + skip_width, skip_width, 3))
            cin = skip_width
        self.head = Conv(init, cin, 1, 1)

    def decode(self, fused: Tensor, skips: list[Tensor]) -> Tensor:
        """(C/2, h, w) fused feature + encoder skips -> (1, H, W) logits."""
        if fused.shape[1:] != skips[-1].shape[1:]:
            raise ShapeError(
                f"fused feature spatial dims {fused.shape[1:]} != last skip {skips[-1].shape[1:]}")
        x = fused
        for block, skip in zip(self.block, skips[-2::-1]):
            x = upsample2x(x, "nearest")
            if x.shape[1:] != skip.shape[1:]:
                raise ShapeError(
                    f"decoder feature {x.shape[1:]} does not match skip {skip.shape[1:]}")
            x = relu(block(concat([x, skip], axis=0)))
        return upsample2x(self.head(x), "bilinear")
