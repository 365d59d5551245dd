"""Propagation state machine: seeding, stepping, determinism, causality."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lesionseg.autodiff import Tensor, sigmoid
from lesionseg.data import Padding, pad_to_multiple
from lesionseg.errors import TrainingDivergedError, ValidationError
from lesionseg.model import ModelConfig, SegmentationModel
from lesionseg.propagation import init, propagate, step
from lesionseg.synth import SynthConfig, synth_generate
from lesionseg.temporal import CHUNK_SCORES, memory_read

SMALL_CHANNELS = (4, 8)


def small_model(**kw):
    return SegmentationModel(ModelConfig(stage_channels=SMALL_CHANNELS, **kw), seed=0)


def small_seq(seed=0, frames=4):
    return synth_generate(SynthConfig(resolution=16, axes=(3.0, 2.0), max_speed=0.5,
                                      distractors=0, frames=frames), seed)


def test_init_seeds_memory_and_prior():
    model = small_model()
    seq = small_seq()
    state = init(model, seq.frames[0], seq.masks[0])
    assert len(state.memory) == 1
    assert state.frame_index == 1
    assert (state.prev_mask.data == seq.masks[0].data).all()


def test_init_rejects_bad_masks():
    model = small_model()
    seq = small_seq()
    with pytest.raises(ValidationError):
        init(model, seq.frames[0], None)
    with pytest.raises(ValidationError):
        init(model, seq.frames[0], Tensor(np.full(seq.frames[0].shape, 0.5)))
    with pytest.raises(ValidationError):
        init(model, seq.frames[0], Tensor(np.zeros((1, 8, 8))))
    nan_mask = seq.masks[0].data.copy()
    nan_mask[0, 0, 0] = np.nan
    with pytest.raises(ValidationError, match="binary"):
        init(model, seq.frames[0], Tensor(nan_mask))


def test_step_advances_state():
    model = small_model()
    seq = small_seq()
    state = init(model, seq.frames[0], seq.masks[0])
    state, pred = step(model, state, seq.frames[1])
    assert pred.shape == seq.frames[1].shape
    assert pred.data.min() > 0.0 and pred.data.max() < 1.0
    assert len(state.memory) == 2
    assert state.frame_index == 2
    assert (state.prev_mask.data == pred.data).all()


def test_baseline_step_reduces_to_memory_read_decode():
    model = small_model(use_sfm=False, use_msff=False)
    seq = small_seq(seed=3)
    state = init(model, seq.frames[0], seq.masks[0])
    _, pred = step(model, state, seq.frames[1])
    # recompute the reduced pipeline by hand
    state2 = init(model, seq.frames[0], seq.masks[0])
    emb = model.encoder.encode(seq.frames[1])
    y = memory_read(state2.memory, emb.key)
    expect = sigmoid(model.decoder.decode(y, emb.skips))
    assert (pred.data == expect.data).all()


def test_memory_capacity_monotone_with_pinned_first():
    model = small_model(memory_capacity=2)
    seq = small_seq(seed=6, frames=5)
    state = init(model, seq.frames[0], seq.masks[0])
    seeded_key = state.memory.keys[0].data.copy()
    for t in range(1, 5):
        state, _ = step(model, state, seq.frames[t])
        assert len(state.memory) == min(1 + t, 2)
    assert (state.memory.keys[0].data == seeded_key).all()


@pytest.mark.parametrize("extra", [0, 1, 5])
def test_memory_capacity_of_every_frame_equals_unlimited(extra):
    seq = small_seq(seed=10, frames=5)
    unlimited = propagate(small_model(memory_capacity=0), seq.frames, seq.masks[0])
    capped = propagate(small_model(memory_capacity=len(seq.frames) + extra),
                       seq.frames, seq.masks[0])
    assert all(a.tobytes() == b.tobytes() for a, b in zip(unlimited, capped))


def test_a_nan_prediction_is_refused_before_it_reaches_the_memory():
    model = small_model()
    model.decoder.head.bias.data[:] = np.nan
    seq = small_seq(seed=11, frames=3)
    with pytest.raises(TrainingDivergedError, match="frame 1: the model predicted NaN"):
        propagate(model, seq.frames, seq.masks[0])


def test_propagate_count_and_determinism():
    model = small_model()
    seq = small_seq(seed=7, frames=2)
    preds = propagate(model, seq.frames, seq.masks[0])
    assert len(preds) == 1
    seq5 = small_seq(seed=8, frames=5)
    a = propagate(model, seq5.frames, seq5.masks[0])
    b = propagate(model, seq5.frames, seq5.masks[0])
    assert all((x == y).all() for x, y in zip(a, b))
    with pytest.raises(ValidationError):
        propagate(model, seq5.frames[:1], seq5.masks[0])


def test_causality_future_frames_do_not_matter():
    model = small_model()
    seq = small_seq(seed=9, frames=4)
    a = propagate(model, seq.frames, seq.masks[0])
    frames = list(seq.frames)
    frames[3] = Tensor(np.clip(frames[3].data + 0.3, 0.0, 1.0))
    b = propagate(model, frames, seq.masks[0])
    assert (a[0] == b[0]).all() and (a[1] == b[1]).all()
    assert not (a[2] == b[2]).all()


@pytest.mark.parametrize("resolution, frames", [(64, 8), (128, 6)])
def test_a_prefix_predicts_bitwise_what_the_whole_sequence_does(resolution, frames):
    """No frame sees the future, with memory reads that stream one chunk
    (64x64) and several (128x128)."""
    model = SegmentationModel(ModelConfig(), seed=0)
    seq = synth_generate(SynthConfig(resolution=resolution, frames=frames), 12)
    positions = (resolution // model.config.total_stride) ** 2
    assert ((frames - 1) * positions ** 2 <= CHUNK_SCORES) == (resolution == 64)
    whole = propagate(model, seq.frames, seq.masks[0])
    for k in range(2, frames):
        prefix = propagate(model, seq.frames[:k], seq.masks[0])
        assert [p.tobytes() for p in prefix] == [p.tobytes() for p in whole[:k - 1]], k


def test_propagate_unpads_to_original_resolution():
    model = small_model()
    rng = np.random.default_rng(10)
    raw_frames = [rng.random((1, 14, 15)) for _ in range(3)]
    padded = [pad_to_multiple(f, 4)[0] for f in raw_frames]
    pad = pad_to_multiple(raw_frames[0], 4)[1]
    mask = np.zeros_like(padded[0])
    mask[0, 6:10, 6:10] = 1.0
    preds = propagate(model, [Tensor(f) for f in padded], Tensor(mask), padding=pad)
    assert all(p.shape == (1, 14, 15) for p in preds)
    assert isinstance(pad, Padding)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(side=st.tuples(st.integers(5, 23), st.integers(5, 23)).filter(
           lambda hw: hw[0] % 4 and hw[1] % 4),
       frames=st.integers(2, 4), seed=st.integers(0, 2**32 - 1),
       toggles=st.sampled_from([{}, dict(use_sfm=False), dict(use_msff=False)]))
def test_predictions_are_finite_probabilities_at_the_unpadded_shape(side, frames, seed,
                                                                    toggles):
    model = small_model(**toggles)
    stride = model.config.total_stride
    assert stride == 4
    rng = np.random.default_rng(seed)
    # padded as load_dataset pads: frames repeat their edge, masks add background
    raw = [rng.random((1, *side)) for _ in range(frames)]
    padded, pads = zip(*(pad_to_multiple(f, stride, "edge") for f in raw))
    mask, _ = pad_to_multiple((rng.random((1, *side)) < 0.3).astype(np.float64), stride,
                              "constant")
    preds = propagate(model, [Tensor(f) for f in padded], Tensor(mask), padding=pads[0])
    assert len(preds) == frames - 1
    for pred in preds:
        assert pred.shape == (1, *side)
        assert np.isfinite(pred).all() and pred.min() >= 0.0 and pred.max() <= 1.0


def test_ablated_models_still_propagate():
    seq = small_seq(seed=11, frames=3)
    for kw in (dict(use_sfm=False), dict(use_msff=False), dict(encoder_tap=3)):
        model = small_model(**kw)
        preds = propagate(model, seq.frames, seq.masks[0])
        assert len(preds) == 2 and np.isfinite(preds[0]).all()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_propagate_rejects_non_finite_frames_by_index(bad):
    model = small_model()
    seq = small_seq()
    frames = list(seq.frames)
    data = frames[2].data.copy()
    data[0, 3, 4] = bad
    frames[2] = Tensor(data)
    with pytest.raises(ValidationError, match="frame 2 "):
        propagate(model, frames, seq.masks[0])


def test_propagate_rejects_a_non_finite_first_frame():
    model = small_model()
    seq = small_seq()
    frames = [Tensor(np.full(seq.frames[0].shape, np.nan))] + list(seq.frames[1:])
    with pytest.raises(ValidationError, match="frame 0 "):
        propagate(model, frames, seq.masks[0])


def test_propagate_rejects_frames_shaped_unlike_frame_0():
    model = small_model()
    seq = small_seq()
    frames = list(seq.frames[:3]) + [Tensor(np.zeros((1, 8, 8)))]
    with pytest.raises(ValidationError, match=r"frame 3 has shape \(1, 8, 8\)"):
        propagate(model, frames, seq.masks[0])
