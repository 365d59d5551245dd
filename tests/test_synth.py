"""Synthetic sequence generator: determinism, geometry, degradations."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.ndimage import gaussian_filter
from scipy.ndimage import label as cc_label

from lesionseg.data import load_dataset
from lesionseg.errors import GenerationError, ValidationError
from lesionseg.synth import (BACKGROUND, LESION_INTENSITY, SynthConfig, _Blur, _lesion_track,
                             make_dataset, synth_generate)

CLEAN = SynthConfig(blur_sigma=0.0, speckle=0.0, deformation=0.0, distractors=0)


def test_config_validation():
    for bad in (dict(resolution=8), dict(frames=0), dict(axes=(0.0, 5.0)),
                dict(deformation=0.9), dict(speckle=2.0), dict(distractors=-1)):
        with pytest.raises(ValidationError):
            SynthConfig(**bad)


@pytest.mark.parametrize("field, bad", [
    ("max_speed", dict(max_speed=float("nan"))),
    ("max_speed", dict(max_speed=float("inf"))),
    ("blur_sigma", dict(blur_sigma=float("nan"))),
    ("blur_sigma", dict(blur_sigma=float("inf"))),
    ("axes", dict(axes=(float("nan"), 5.0))),
    ("axes", dict(axes=(10.0, float("inf")))),
    ("blur_sigma", dict(blur_sigma=1e9)),
    # radius int(4 * 4.125 + 0.5) = 17 > 16
    ("blur_sigma", dict(resolution=16, blur_sigma=4.125)),
])
def test_nonfinite_and_impossible_values_are_refused_naming_the_field(field, bad):
    with pytest.raises(ValidationError, match=field):
        SynthConfig(**bad)


def test_a_blur_as_wide_as_the_frame_is_accepted():
    cfg = SynthConfig(resolution=16, frames=2, axes=(4.0, 3.0), max_speed=0.3,
                      blur_sigma=4.0)      # radius 16
    assert len(synth_generate(cfg, 0)) == 2


@st.composite
def blur_cases(draw):
    """(shape, sigma, seed): sides from 16, radius from 0 up to the longer side."""
    shape = (draw(st.integers(16, 40)), draw(st.integers(16, 40)))
    radius = draw(st.integers(0, max(shape)))
    # int(4 sigma + 0.5) == radius on [(radius - 0.5) / 4, (radius + 0.5) / 4)
    sigma = draw(st.floats(max(0.0, (radius - 0.5) / 4), (radius + 0.5) / 4,
                           exclude_min=radius == 0, exclude_max=True))
    return shape, sigma, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=blur_cases())
@example(case=((64, 64), 1.0, 0))      # the benchmark's frames
@example(case=((128, 128), 1.0, 1))
@example(case=((16, 24), 0.1, 2))      # radius 0
@example(case=((16, 24), 6.0, 3))      # radius 24, the longer side
def test_blur_is_bitwise_scipy_gaussian_filter(case):
    shape, sigma, seed = case
    img = np.random.default_rng(seed).normal(size=shape)
    want = gaussian_filter(img, sigma, mode="nearest")
    blur = _Blur(shape, sigma)
    assert blur(img).tobytes() == want.tobytes()
    # the buffers are reused: a second frame through the same blur is exact too
    assert blur(img[::-1]).tobytes() == gaussian_filter(img[::-1], sigma, mode="nearest").tobytes()


def test_determinism_bit_identical():
    cfg = SynthConfig()
    a = synth_generate(cfg, 123)
    b = synth_generate(cfg, 123)
    for fa, fb in zip(a.frames, b.frames):
        assert (fa.data == fb.data).all()
    for ma, mb in zip(a.masks, b.masks):
        assert (ma.data == mb.data).all()
    c = synth_generate(cfg, 124)
    assert any((fa.data != fc.data).any() for fa, fc in zip(a.frames, c.frames))


def test_sequence_structure():
    seq = synth_generate(SynthConfig(frames=7), 0)
    assert len(seq) == 7 and len(seq.masks) == 7
    assert seq.frames[0].shape == (1, 64, 64)
    assert all(0.0 <= f.data.min() and f.data.max() <= 1.0 for f in seq.frames)
    assert all(set(np.unique(m.data)) <= {0.0, 1.0} for m in seq.masks)
    assert all(m.data.any() for m in seq.masks)   # lesion present in every frame


def test_noiseless_frames_threshold_to_exact_mask():
    seq = synth_generate(CLEAN, 5)
    cut = (BACKGROUND + LESION_INTENSITY) / 2
    for frame, mask in zip(seq.frames, seq.masks):
        assert ((frame.data < cut) == (mask.data == 1.0)).all()


def test_lesion_darker_than_background():
    seq = synth_generate(SynthConfig(speckle=0.0), 3)
    for frame, mask in zip(seq.frames, seq.masks):
        inside = frame.data[mask.data == 1.0].mean()
        outside = frame.data[mask.data == 0.0].mean()
        assert inside < outside


def test_mask_area_tracks_analytic_ellipse():
    cfg = SynthConfig(resolution=128, axes=(20.0, 14.0), distractors=0)
    for seed in (0, 1, 2):
        seq = synth_generate(cfg, seed)
        # the track is the first draw from the generator's stream
        track = _lesion_track(cfg, np.random.default_rng(seed))
        for mask, spec in zip(seq.masks, track):
            area = np.pi * spec.a * spec.b
            assert abs(mask.data.sum() - area) / area < 0.02


def test_masks_connected_without_distractors():
    seq = synth_generate(SynthConfig(distractors=0, frames=4), 9)
    for mask in seq.masks:
        _, n = cc_label(mask.data[0] == 1.0)
        assert n == 1


def test_distractors_darken_background():
    plain = synth_generate(SynthConfig(speckle=0.0, distractors=0), 11)
    busy = synth_generate(SynthConfig(speckle=0.0, distractors=3), 11)
    assert busy.frames[0].data.mean() < plain.frames[0].data.mean()


def test_runaway_lesion_rejected():
    cfg = SynthConfig(max_speed=20.0, frames=10)
    with pytest.raises(GenerationError, match="field of view"):
        synth_generate(cfg, 3)


def test_make_dataset_tree(tmp_path):
    train, val = make_dataset(tmp_path, 5, SynthConfig(frames=3), seed=1)
    assert len(train) + len(val) == 5 and len(val) >= 1
    dirs = sorted(p.name for p in (tmp_path / "JPEGImages").iterdir())
    assert dirs == [f"synth{i:03d}" for i in range(5)]
    assert (tmp_path / "ImageSets" / "train.txt").is_file()
    assert (tmp_path / "ImageSets" / "val.txt").is_file()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        seqs = load_dataset(tmp_path)
    assert caught == []
    assert len(seqs) == 5 and all(len(s) == 3 for s in seqs)


def test_make_dataset_regenerates_byte_identical(tmp_path):
    cfg = SynthConfig(frames=3)
    roots = []
    for sub in ("a", "b"):
        root = tmp_path / sub
        make_dataset(root, 3, cfg, seed=4)
        roots.append(root)
    files_a = sorted(p.relative_to(roots[0]) for p in roots[0].rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(roots[1]) for p in roots[1].rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (roots[0] / rel).read_bytes() == (roots[1] / rel).read_bytes()


def test_make_dataset_pinned_val_count(tmp_path):
    train, val = make_dataset(tmp_path / "x", 12, SynthConfig(frames=3), seed=2,
                              val_count=2)
    assert len(train) == 10 and len(val) == 2
    assert sorted(train + val) == [f"synth{i:03d}" for i in range(12)]
    other_seed = make_dataset(tmp_path / "w", 12, SynthConfig(frames=3), seed=3, val_count=2)
    assert other_seed != (train, val)
    train0, val0 = make_dataset(tmp_path / "y", 4, SynthConfig(frames=3), seed=2,
                                val_count=0)
    assert len(train0) == 4 and val0 == []
    with pytest.raises(ValidationError):
        make_dataset(tmp_path / "z", 3, SynthConfig(frames=3), seed=2, val_count=3)


@pytest.mark.parametrize("count", [1, 2, 3, 10, 15, 16, 25])
def test_default_split_holds_out_what_a_ninety_percent_train_ratio_did(tmp_path, count):
    cfg = SynthConfig(resolution=16, frames=1, axes=(3.0, 2.0))
    train, val = make_dataset(tmp_path, count, cfg, seed=0)
    assert len(train) == max(1, min(count - 1, int(round(count * 0.9))))
    assert sorted(train + val) == [f"synth{i:03d}" for i in range(count)]
