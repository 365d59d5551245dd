"""Prior-mask gating and the single-entry spatial attention read."""

import numpy as np
import pytest

from lesionseg.autodiff import Tensor, grad_check, tsum
from lesionseg.backbone import Encoder, Initializer
from lesionseg.errors import ShapeError, ValidationError
from lesionseg.model import ModelConfig
from lesionseg.spatial import apply_prior, spatial_read

SMALL = ModelConfig(stage_channels=(4, 8))


def test_ones_mask_is_identity():
    frame = Tensor(np.random.default_rng(0).random((1, 8, 8)))
    gated = apply_prior(Tensor(np.ones((1, 8, 8))), frame)
    assert (gated.data == frame.data).all()


def test_zeros_mask_annihilates():
    frame = Tensor(np.random.default_rng(1).random((1, 8, 8)))
    gated = apply_prior(Tensor(np.zeros((1, 8, 8))), frame)
    assert not gated.data.any()


def test_half_mask_scales():
    gated = apply_prior(Tensor(np.full((1, 4, 4), 0.5)), Tensor(np.full((1, 4, 4), 2.0)))
    assert np.allclose(gated.data, 1.0)


def test_logit_mask_rejected():
    frame = Tensor(np.zeros((1, 4, 4)))
    with pytest.raises(ValidationError, match="sigmoid"):
        apply_prior(Tensor(np.full((1, 4, 4), 3.2)), frame)
    with pytest.raises(ValidationError, match="sigmoid"):
        apply_prior(Tensor(np.full((1, 4, 4), -0.1)), frame)
    with pytest.raises(ShapeError):
        apply_prior(Tensor(np.zeros((1, 8, 8))), frame)


def test_nan_prior_rejected():
    # a NaN minimum fails both `< 0` and `> 1`, so a min/max test let it through
    prior = np.full((1, 8, 8), 0.5)
    prior[0, 3, 5] = np.nan
    with pytest.raises(ValidationError, match="sigmoid"):
        apply_prior(Tensor(prior), Tensor(np.ones((1, 8, 8))))


def test_zero_mask_zero_bias_zeroes_value():
    # gating with an all-zero mask must silence the value head end to end
    enc = Encoder(SMALL, Initializer(2))
    frame = Tensor(np.random.default_rng(3).random((1, 16, 16)))
    gated = apply_prior(Tensor(np.zeros((1, 16, 16))), frame)
    v_prior = enc.encode(gated).value
    assert not v_prior.data.any()
    z = spatial_read(Tensor(np.random.default_rng(4).standard_normal((1, 4, 4))),
                     Tensor(np.random.default_rng(5).standard_normal((1, 4, 4))),
                     v_prior)
    assert not z.data.any()


def test_background_region_suppressed():
    # mask keeps the left half only; a delta in the zeroed right half vanishes
    enc = Encoder(SMALL, Initializer(6))
    mask = np.zeros((1, 16, 16))
    mask[:, :, :8] = 1.0
    delta = np.zeros((1, 16, 16))
    delta[0, 8, 14] = 1.0
    v_delta = enc.encode(apply_prior(Tensor(mask), Tensor(delta))).value
    assert not v_delta.data.any()
    # the same delta inside the kept region does reach the value head
    delta[0, 8, 14] = 0.0
    delta[0, 8, 2] = 1.0
    v_kept = enc.encode(apply_prior(Tensor(mask), Tensor(delta))).value
    assert v_kept.data.any()


def test_uniform_prev_key_averages_value():
    rng = np.random.default_rng(7)
    v = rng.standard_normal((4, 3, 3))
    z = spatial_read(Tensor(rng.standard_normal((2, 3, 3))),
                     Tensor(np.ones((2, 3, 3))), Tensor(v))
    mean_vec = v.reshape(4, -1).mean(axis=1)
    assert np.allclose(z.data, mean_vec[:, None, None], atol=1e-12)


def test_saturated_query_picks_position():
    # 2x2 grid, one-hot orthogonal keys per position, distinct value vectors
    prev_key = np.zeros((4, 2, 2))
    for i in range(4):
        prev_key[i, i // 2, i % 2] = 1.0
    value = np.arange(4.0 * 4).reshape(4, 2, 2)
    query = Tensor(100.0 * prev_key)   # position p attends to memory position p
    z = spatial_read(query, Tensor(prev_key), Tensor(value))
    assert np.allclose(z.data, value, atol=1e-6)


def test_gradient_through_prior_and_read():
    init = Initializer(8)
    enc = Encoder(SMALL, init)
    rng = np.random.default_rng(9)
    frame = Tensor(rng.random((1, 8, 8)))
    query = Tensor(rng.standard_normal((1, 2, 2)))
    prev_key = Tensor(rng.standard_normal((1, 2, 2)))

    def f(mask):
        v_prior = enc.encode(apply_prior(mask, frame)).value
        return tsum(spatial_read(query, prev_key, v_prior))

    mask0 = Tensor(rng.random((1, 8, 8)) * 0.8 + 0.1, requires_grad=True)
    assert grad_check(f, mask0) < 1e-4
