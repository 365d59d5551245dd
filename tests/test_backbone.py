"""Encoder/decoder shape contracts, zero propagation, and gradients."""

import numpy as np
import pytest

from lesionseg.autodiff import Tensor, grad_check, sigmoid, tmean
from lesionseg.backbone import Decoder, Encoder, Initializer, named_parameters
from lesionseg.errors import ShapeError, ValidationError
from lesionseg.model import ModelConfig

SMALL = ModelConfig(stage_channels=(4, 8))


def test_config_validation():
    with pytest.raises(ValidationError):
        ModelConfig(stage_channels=(16, 32, 60))   # last width not /8
    with pytest.raises(ValidationError):
        ModelConfig(stage_channels=())
    assert (SMALL.total_stride, SMALL.feature_channels) == (4, 8)
    assert (ModelConfig().total_stride, ModelConfig().feature_channels) == (8, 64)


def test_default_embedding_shapes():
    enc = Encoder(ModelConfig(), Initializer(0))
    emb = enc.encode(Tensor(np.random.default_rng(0).random((1, 64, 64))))
    assert emb.key.shape == (8, 8, 8)
    assert emb.value.shape == (32, 8, 8)
    assert [s.shape for s in emb.skips] == [(16, 32, 32), (32, 16, 16), (64, 8, 8)]


def test_zero_frame_zero_projections():
    enc = Encoder(SMALL, Initializer(1))
    emb = enc.encode(Tensor(np.zeros((1, 16, 16))))
    # zero biases everywhere, so a zero frame stays zero through every stage
    assert not emb.key.data.any()
    assert not emb.value.data.any()


def test_encode_deterministic():
    enc = Encoder(SMALL, Initializer(2))
    frame = Tensor(np.random.default_rng(3).random((1, 16, 16)))
    a = enc.encode(frame)
    b = enc.encode(frame)
    assert (a.skips[-1].data == b.skips[-1].data).all()
    assert (a.key.data == b.key.data).all()


def test_indivisible_input_rejected():
    enc = Encoder(SMALL, Initializer(0))
    with pytest.raises(ShapeError, match="pad"):
        enc.encode(Tensor(np.zeros((1, 18, 16))))


def test_mask_channel_validation():
    enc = Encoder(SMALL, Initializer(0))
    frame = Tensor(np.zeros((1, 16, 16)))
    with pytest.raises(ShapeError):
        enc.encode(frame, mask=Tensor(np.zeros((1, 8, 8))))
    with pytest.raises(ValidationError):
        enc.encode(frame, mask=Tensor(np.full((1, 16, 16), 1.5)))
    nan_mask = np.full((1, 16, 16), 0.5)
    nan_mask[0, 7, 2] = np.nan
    with pytest.raises(ValidationError, match=r"\[0, 1\]"):
        enc.encode(frame, mask=Tensor(nan_mask))


def test_mask_channel_changes_embedding():
    enc = Encoder(SMALL, Initializer(4))
    frame = Tensor(np.random.default_rng(5).random((1, 16, 16)))
    plain = enc.encode(frame)
    masked = enc.encode(frame, mask=Tensor(np.ones((1, 16, 16))))
    assert not np.allclose(plain.skips[-1].data, masked.skips[-1].data)


def test_decoder_zero_inputs_give_bias():
    dec = Decoder(SMALL, Initializer(6))
    for block in dec.block:
        block.weight.data[:] = 0.0
    dec.head.weight.data[:] = 0.0
    dec.head.bias.data[:] = 0.7
    fused = Tensor(np.zeros((4, 4, 4)))
    skips = [Tensor(np.zeros((4, 8, 8))), Tensor(np.zeros((8, 4, 4)))]
    logits = dec.decode(fused, skips)
    assert logits.shape == (1, 16, 16)
    assert np.allclose(logits.data, 0.7)


@pytest.mark.parametrize("config,hw", [
    (SMALL, 16),
    (SMALL, 32),
    (ModelConfig(), 64),
    (ModelConfig(stage_channels=(8, 16, 24)), 24),
])
def test_encode_decode_round_trip_shape(config, hw):
    init = Initializer(7)
    enc = Encoder(config, init)
    dec = Decoder(config, init)
    frame = Tensor(np.random.default_rng(8).random((1, hw, hw)))
    emb = enc.encode(frame)
    logits = dec.decode(emb.value, emb.skips)
    assert logits.shape == (1, hw, hw)
    prob = sigmoid(logits)
    assert prob.data.min() > 0.0 and prob.data.max() < 1.0


def test_decoder_spatial_mismatch_rejected():
    dec = Decoder(SMALL, Initializer(9))
    with pytest.raises(ShapeError):
        dec.decode(Tensor(np.zeros((4, 8, 8))),
                   [Tensor(np.zeros((4, 8, 8))), Tensor(np.zeros((8, 4, 4)))])


def test_decoder_parameter_gradient():
    init = Initializer(10)
    enc = Encoder(SMALL, init)
    dec = Decoder(SMALL, init)
    frame = Tensor(np.random.default_rng(11).random((1, 16, 16)))
    emb = enc.encode(frame)
    skips = [Tensor(s.data) for s in emb.skips]
    fused = Tensor(emb.value.data)

    def f(w):
        dec.head.weight = w
        return tmean(dec.decode(fused, skips))

    weight = Tensor(dec.head.weight.data.copy(), requires_grad=True)
    assert grad_check(f, weight) < 1e-4


def test_encoder_parameter_count_formula():
    enc = Encoder(ModelConfig(), Initializer(0))
    total = sum(p.size for p in named_parameters(enc).values())
    # per stage: down conv + two residual convs, all 3x3 with bias
    expect = 0
    chans = [2, 16, 32, 64]
    for cin, cout in zip(chans[:-1], chans[1:]):
        expect += cout * cin * 9 + cout + 2 * (cout * cout * 9 + cout)
    expect += 8 * 64 + 8        # key head 1x1
    expect += 32 * 64 + 32      # value head 1x1
    assert total == expect == 123032
