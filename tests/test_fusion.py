"""Channel-weight heads and the weighted branch fusion."""

import numpy as np
import pytest

from lesionseg.autodiff import Tensor, grad_check, tsum
from lesionseg.backbone import Initializer, named_parameters
from lesionseg.errors import ShapeError
from lesionseg.fusion import (ConcatReduce, FcHead, WeightedFusion, channel_weights,
                              weighted_sum)


def weights_oracle(x, head):
    """Straight-line numpy reimplementation of channel_weights."""
    per_channel = x.reshape(x.shape[0], -1)
    stats = np.concatenate([per_channel.mean(axis=1), per_channel.max(axis=1)])
    hidden = np.maximum(head.w1.data @ stats + head.b1.data, 0.0)
    return 1.0 / (1.0 + np.exp(-(head.w2.data @ hidden + head.b2.data)))


def test_zero_input_gives_half_weights():
    head = FcHead(Initializer(0), 4)
    w = channel_weights(Tensor(np.zeros((4, 3, 3))), head)
    assert np.allclose(w.data, 0.5)   # sigmoid(0), since biases start at zero


def test_constant_input_pooling_equality():
    # avg == max on a constant map, so the two halves of the first dense
    # layer act on the same statistics and fold into one
    x = np.full((4, 5, 5), 1.7)
    head = FcHead(Initializer(1), 4)
    w = channel_weights(Tensor(x), head)
    folded = head.w1.data[:, :4] + head.w1.data[:, 4:]
    hidden = np.maximum(folded @ np.full(4, 1.7) + head.b1.data, 0.0)
    expect = 1.0 / (1.0 + np.exp(-(head.w2.data @ hidden + head.b2.data)))
    assert np.allclose(w.data, expect, atol=1e-15)
    assert np.allclose(w.data, weights_oracle(x, head), atol=1e-15)


def test_weights_match_independent_oracle():
    rng = np.random.default_rng(2)
    head = FcHead(Initializer(3), 4)
    for _ in range(5):
        x = rng.standard_normal((4, 3, 3))
        w = channel_weights(Tensor(x), head)
        assert w.shape == (4,)
        assert np.abs(w.data - weights_oracle(x, head)).max() < 1e-12
        assert (w.data > 0.0).all() and (w.data < 1.0).all()


def test_channel_mismatch_rejected():
    head = FcHead(Initializer(0), 4)
    with pytest.raises(ShapeError):
        channel_weights(Tensor(np.zeros((5, 3, 3))), head)


def test_fuse_zero_side_branches():
    rng = np.random.default_rng(4)
    wf = WeightedFusion(Initializer(5), value_channels=4, coarse_channels=2)
    y = rng.standard_normal((4, 3, 3))
    x = wf.fuse(Tensor(y), Tensor(np.zeros((4, 3, 3))), Tensor(np.zeros((2, 3, 3))))
    wy = weights_oracle(y, wf.head_temporal)
    assert np.allclose(x.data, wy[:, None, None] * y, atol=1e-12)


def test_fuse_equal_branches_triple():
    wf = WeightedFusion(Initializer(6), value_channels=4, coarse_channels=4)
    wf.lift.weight.data = np.eye(4).reshape(4, 4, 1, 1)
    for name in ("w1", "b1", "w2", "b2"):
        getattr(wf.head_spatial, name).data = getattr(wf.head_temporal, name).data.copy()
        getattr(wf.head_coarse, name).data = getattr(wf.head_temporal, name).data.copy()
    f = np.random.default_rng(7).standard_normal((4, 3, 3))
    x = wf.fuse(Tensor(f), Tensor(f), Tensor(f))
    u = weights_oracle(f, wf.head_temporal)
    assert np.allclose(x.data, 3.0 * u[:, None, None] * f, atol=1e-12)


def test_fuse_matches_elementwise_oracle():
    rng = np.random.default_rng(8)
    wf = WeightedFusion(Initializer(9), value_channels=4, coarse_channels=2)
    y = rng.standard_normal((4, 3, 3))
    z = rng.standard_normal((4, 3, 3))
    w = rng.standard_normal((2, 3, 3))
    x = wf.fuse(Tensor(y), Tensor(z), Tensor(w))
    lifted = np.einsum("oi,ihw->ohw", wf.lift.weight.data[:, :, 0, 0], w) \
        + wf.lift.bias.data[:, None, None]
    expect = (weights_oracle(y, wf.head_temporal)[:, None, None] * y
              + weights_oracle(z, wf.head_spatial)[:, None, None] * z
              + weights_oracle(lifted, wf.head_coarse)[:, None, None] * lifted)
    assert np.abs(x.data - expect).max() < 1e-12
    # boundedness from (0,1) weights
    assert (np.abs(x.data) <= np.abs(y) + np.abs(z) + np.abs(lifted) + 1e-12).all()


def test_fuse_without_spatial_branch():
    rng = np.random.default_rng(10)
    wf = WeightedFusion(Initializer(11), value_channels=4, coarse_channels=2, use_sfm=False)
    assert wf.head_spatial is None
    y = rng.standard_normal((4, 3, 3))
    w = rng.standard_normal((2, 3, 3))
    x = wf.fuse(Tensor(y), None, Tensor(w))
    lifted = np.einsum("oi,ihw->ohw", wf.lift.weight.data[:, :, 0, 0], w) \
        + wf.lift.bias.data[:, None, None]
    expect = (weights_oracle(y, wf.head_temporal)[:, None, None] * y
              + weights_oracle(lifted, wf.head_coarse)[:, None, None] * lifted)
    assert np.abs(x.data - expect).max() < 1e-12


def test_fuse_spatial_mismatch_rejected():
    wf = WeightedFusion(Initializer(12), value_channels=4, coarse_channels=2)
    with pytest.raises(ShapeError):
        wf.fuse(Tensor(np.zeros((4, 3, 3))), Tensor(np.zeros((4, 2, 2))),
                Tensor(np.zeros((2, 3, 3))))


def test_weighted_sum_linearity_with_frozen_weights():
    rng = np.random.default_rng(13)
    y1, y2 = rng.standard_normal((2, 4, 3, 3))
    u = Tensor(rng.random(4))
    lhs = weighted_sum([Tensor(y1 + y2)], [u])
    rhs = weighted_sum([Tensor(y1)], [u]).data + weighted_sum([Tensor(y2)], [u]).data
    assert np.allclose(lhs.data, rhs, atol=1e-12)
    with pytest.raises(ValueError):
        weighted_sum([Tensor(y1)], [])


def test_fusion_gradients():
    rng = np.random.default_rng(14)
    wf = WeightedFusion(Initializer(15), value_channels=4, coarse_channels=2)
    head = FcHead(Initializer(16), 4)
    z = Tensor(rng.standard_normal((4, 3, 3)))
    w = Tensor(rng.standard_normal((2, 3, 3)))
    assert grad_check(lambda x: tsum(channel_weights(x, head)),
                      Tensor(rng.standard_normal((4, 3, 3)), requires_grad=True)) < 1e-4
    assert grad_check(lambda y: tsum(wf.fuse(y, z, w)),
                      Tensor(rng.standard_normal((4, 3, 3)), requires_grad=True)) < 1e-4


def test_concat_reduce_shape():
    cr = ConcatReduce(Initializer(17), 4)
    out = cr(Tensor(np.zeros((4, 3, 3))), Tensor(np.ones((4, 3, 3))))
    assert out.shape == (4, 3, 3)
    assert list(named_parameters(cr)) == ["reduce.weight", "reduce.bias"]
