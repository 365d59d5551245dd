"""Multi-scale feature fusion: per-branch channel weights from pooled
statistics, then a weighted sum of the temporal, spatial, and coarse
encoder branches.

Channel weights are squeeze-excitation style: global avg and max pooling
reduce each branch to per-channel statistics, two dense layers with a
4-fold bottleneck map them to weights in (0, 1), and the weights
broadcast back over the spatial dims.
The coarse branch is lifted to the common channel width by a 1x1
convolution before weighting, since the weighted sum needs equal widths.
"""

from __future__ import annotations

from .autodiff import Tensor, concat, linear, mul, pool2d, relu, reshape, sigmoid
from .backbone import Conv, Initializer
from .errors import ShapeError

FC_REDUCTION = 4   # hidden width of a head is channels // FC_REDUCTION


class FcHead:
    """Two dense layers mapping pooled statistics to weights in (0, 1)."""

    def __init__(self, init: Initializer, channels: int):
        self.channels = channels
        hidden = max(1, channels // FC_REDUCTION)
        self.w1 = init.dense(hidden, 2 * channels)
        self.b1 = Initializer.bias(hidden)
        self.w2 = init.dense(channels, hidden)
        self.b2 = Initializer.bias(channels)


def channel_weights(x: Tensor, head: FcHead) -> Tensor:
    """Avg- and max-pooled statistics of a (C', h, w) map -> weights (C',)."""
    if x.ndim != 3 or x.shape[0] != head.channels:
        raise ShapeError(f"feature shape {x.shape} does not match head width {head.channels}")
    stats = concat([pool2d(x, "avg"), pool2d(x, "max")], axis=0)
    hidden = relu(linear(stats, head.w1, head.b1))
    return sigmoid(linear(hidden, head.w2, head.b2))


def weighted_sum(features: list[Tensor], weights: list[Tensor]) -> Tensor:
    """Sum of per-channel-weighted maps; weights broadcast spatially."""
    if not features or len(features) != len(weights):
        raise ValueError("need one weight vector per feature map")
    total = None
    for feat, wvec in zip(features, weights):
        term = mul(reshape(wvec, (wvec.shape[0], 1, 1)), feat)
        total = term if total is None else total + term
    return total


class WeightedFusion:
    """The fusion block: one head per branch plus the coarse-lift projection.

    Without the spatial branch (`use_sfm` false) the block has no spatial
    head, and `fuse` is passed no spatial feature.
    """

    def __init__(self, init: Initializer, value_channels: int, coarse_channels: int,
                 use_sfm: bool = True):
        self.lift = Conv(init, coarse_channels, value_channels, 1)
        self.head_temporal = FcHead(init, value_channels)
        self.head_spatial = FcHead(init, value_channels) if use_sfm else None
        self.head_coarse = FcHead(init, value_channels)

    def fuse(self, temporal: Tensor, spatial: Tensor | None, coarse: Tensor) -> Tensor:
        """Weighted sum of the temporal, spatial (if built) and coarse branches at (C/2, h, w)."""
        for name, feat in (("spatial", spatial), ("coarse", coarse)):
            if feat is not None and feat.shape[1:] != temporal.shape[1:]:
                raise ShapeError(
                    f"{name} branch spatial dims {feat.shape[1:]} != temporal {temporal.shape[1:]}")
        lifted = self.lift(coarse)
        features = [temporal, lifted]
        weights = [channel_weights(temporal, self.head_temporal),
                   channel_weights(lifted, self.head_coarse)]
        if spatial is not None:
            features.insert(1, spatial)
            weights.insert(1, channel_weights(spatial, self.head_spatial))
        return weighted_sum(features, weights)


class ConcatReduce:
    """Fallback fusion with the weighting disabled: concat then 1x1 conv."""

    def __init__(self, init: Initializer, channels: int):
        self.reduce = Conv(init, 2 * channels, channels, 1)

    def __call__(self, a: Tensor, b: Tensor) -> Tensor:
        return self.reduce(concat([a, b], axis=0))
