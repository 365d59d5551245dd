"""Model assembly: encoder, decoder, coarse tap, and the fusion stage,
wired according to a ModelConfig.

The config sets the stage widths, the coarse tap and the memory size,
and which branches exist. The temporal branch is always on. The spatial
branch and the weighted fusion are toggleable; with the weighting off
the branches merge by concat + 1x1 conv, and with the spatial branch
also off the temporal read feeds the decoder directly. A branch that is
off builds no parameter: without the spatial branch the fusion block has
no spatial head. Construction order fixes parameter order, so (config,
seed) fixes the initial weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .backbone import Conv, Decoder, Encoder, Initializer, named_parameters
from .errors import ValidationError
from .fusion import ConcatReduce, WeightedFusion

TAP_CHOICES = (2, 3, 4)


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and branch-toggle settings: the `[model]` config keys."""

    stage_channels: tuple[int, ...] = (16, 32, 64)
    use_sfm: bool = True            # spatial branch (prior-gated read)
    use_msff: bool = True           # weighted multi-branch fusion
    encoder_tap: int = 4            # 4 = last stage, 3 = second last, 2 = third last
    memory_capacity: int = 0        # 0 means unlimited

    def __post_init__(self):
        if not self.stage_channels:
            raise ValidationError("stage_channels must name at least one stage")
        if min(self.stage_channels) < 1:
            raise ValidationError(f"every stage width must be >= 1, got {self.stage_channels}")
        if self.feature_channels % 8 != 0:
            raise ValidationError(
                f"the last stage width {self.feature_channels} must be divisible by 8")
        if self.encoder_tap not in TAP_CHOICES:
            raise ValidationError(f"encoder_tap must be one of {TAP_CHOICES}, got {self.encoder_tap}")
        if self.memory_capacity < 0:
            raise ValidationError(
                f"memory_capacity must be >= 0 (0 means unlimited), got {self.memory_capacity}")
        if self.tap_stage_index < 0:
            raise ValidationError(
                f"encoder_tap {self.encoder_tap} needs at least {5 - self.encoder_tap} "
                f"encoder stages, config has {len(self.stage_channels)}")

    @property
    def total_stride(self) -> int:
        return 2 ** len(self.stage_channels)   # each stage halves the resolution

    @property
    def feature_channels(self) -> int:
        return self.stage_channels[-1]

    @property
    def key_channels(self) -> int:
        return self.feature_channels // 8

    @property
    def value_channels(self) -> int:
        return self.feature_channels // 2

    @property
    def tap_stage_index(self) -> int:
        # tap 4 names the last stage, 3 the second last, 2 the third last
        return len(self.stage_channels) + self.encoder_tap - 5


class SegmentationModel:
    """All trainable pieces of the network plus the branch-merge logic."""

    def __init__(self, config: ModelConfig | None = None, seed: int = 0):
        self.config = config if config is not None else ModelConfig()
        cfg = self.config
        init = Initializer(seed)
        self.encoder = Encoder(cfg, init)
        self.decoder = Decoder(cfg, init)
        self.tap_proj: Conv | None = None
        self.fusion: WeightedFusion | None = None
        self.reduce: ConcatReduce | None = None
        if cfg.use_msff:
            idx = cfg.tap_stage_index
            tap_stride = cfg.total_stride // (2 ** (idx + 1))
            self.tap_proj = Conv(init, cfg.stage_channels[idx], cfg.key_channels, 1,
                                 stride=tap_stride)
            self.fusion = WeightedFusion(init, cfg.value_channels, cfg.key_channels,
                                         use_sfm=cfg.use_sfm)
        elif cfg.use_sfm:
            self.reduce = ConcatReduce(init, cfg.value_channels)

    def coarse_tap(self, skips: list[Tensor]) -> Tensor:
        """Project the configured encoder stage to (C/8, h, w)."""
        assert self.tap_proj is not None, "coarse tap exists only with fusion enabled"
        return self.tap_proj(skips[self.config.tap_stage_index])

    def merge_branches(self, temporal: Tensor, spatial: Tensor | None,
                       skips: list[Tensor]) -> Tensor:
        """Combine branch reads into the (C/2, h, w) decoder input feature."""
        if self.fusion is not None:
            return self.fusion.fuse(temporal, spatial, self.coarse_tap(skips))
        if self.reduce is not None:
            assert spatial is not None, "concat merge needs the spatial branch"
            return self.reduce(temporal, spatial)
        return temporal

    def parameters(self) -> dict[str, Tensor]:
        """Stable name -> tensor map over every trainable parameter."""
        return named_parameters(self)

    def load_parameter_data(self, arrays: dict[str, np.ndarray]) -> None:
        """Overwrite parameter values in place; names and shapes must match."""
        params = self.parameters()
        if set(arrays) != set(params):
            missing = sorted(set(params) - set(arrays))
            extra = sorted(set(arrays) - set(params))
            raise ValidationError(
                f"parameter name mismatch; missing {missing[:3]}, unexpected {extra[:3]}")
        for name, p in params.items():
            if arrays[name].shape != p.shape:
                raise ValidationError(
                    f"parameter {name}: shape {arrays[name].shape} != expected {p.shape}")
            p.data = np.asarray(arrays[name], dtype=np.float64)
