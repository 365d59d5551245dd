"""Dataset tree IO, padding arithmetic, and clip sampling."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lesionseg.data import (Clip, Padding, VideoSequence, load_dataset, pad_to_multiple,
                            read_split, sample_clips, unpad,
                            write_sequence, write_split_files)
from lesionseg.errors import ValidationError
from lesionseg.netpbm import write_pgm, write_ppm
from lesionseg.autodiff import Tensor


def make_tree(root, sequences, size=(16, 16)):
    """sequences: {name: frame_count}; frames get distinct constant levels."""
    h, w = size
    for name, count in sequences.items():
        frames, masks = [], []
        for i in range(count):
            frames.append(np.full((h, w), (i + 1) / (count + 1)))
            mask = np.zeros((h, w))
            mask[h // 4:h // 2, w // 4:w // 2] = 1.0
            masks.append(mask)
        write_sequence(root, name, frames, masks)
    names = sorted(sequences)
    write_split_files(root, names, [])


def test_round_trip_smoke(tmp_path):
    make_tree(tmp_path, {"seq_a": 2})
    seqs = load_dataset(tmp_path)
    assert len(seqs) == 1
    seq = seqs[0]
    assert len(seq) == 2 and len(seq.masks) == 2
    assert seq.frames[0].shape == (1, 16, 16)
    assert set(np.unique(seq.masks[0].data)) <= {0.0, 1.0}


def test_sequences_sorted_lexicographically(tmp_path):
    make_tree(tmp_path, {"b_seq": 3, "a_seq": 3, "c_seq": 3})
    names = [s.name for s in load_dataset(tmp_path)]
    assert names == ["a_seq", "b_seq", "c_seq"]


def test_split_filtering(tmp_path):
    make_tree(tmp_path, {"s0": 3, "s1": 3, "s2": 3})
    write_split_files(tmp_path, ["s2", "s0"], ["s1"])
    assert [s.name for s in load_dataset(tmp_path, split="train")] == ["s0", "s2"]
    assert [s.name for s in load_dataset(tmp_path, split="val")] == ["s1"]
    assert read_split(tmp_path, "train") == ["s2", "s0"]
    write_split_files(tmp_path, ["ghost"], [])
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path, split="train")


def test_missing_annotation_is_descriptive(tmp_path):
    make_tree(tmp_path, {"seq": 3})
    (tmp_path / "Annotations" / "seq" / "00001.pgm").unlink()
    with pytest.raises(FileNotFoundError, match="00001"):
        load_dataset(tmp_path)


def test_a_frame_stored_twice_is_refused_naming_both(tmp_path):
    make_tree(tmp_path, {"seq": 4})
    write_ppm(tmp_path / "JPEGImages" / "seq" / "00001.ppm", np.zeros((16, 16, 3)))
    with pytest.raises(ValidationError, match="00001.pgm and 00001.ppm share the stem"):
        load_dataset(tmp_path)


def test_mixed_resolution_rejected(tmp_path):
    make_tree(tmp_path, {"seq": 2})
    write_pgm(tmp_path / "JPEGImages" / "seq" / "00001.pgm", np.zeros((8, 8)))
    with pytest.raises(ValidationError, match="seq"):
        load_dataset(tmp_path)


def test_color_frames_average_to_gray(tmp_path):
    img = np.zeros((16, 16, 3))
    img[:, :, 0], img[:, :, 1], img[:, :, 2] = 0.2, 0.5, 0.8
    (tmp_path / "JPEGImages" / "seq").mkdir(parents=True)
    write_ppm(tmp_path / "JPEGImages" / "seq" / "00000.ppm", img)
    seq = load_dataset(tmp_path)[0]
    assert seq.masks is None
    expect = (np.rint(0.2 * 255) + np.rint(0.5 * 255) + np.rint(0.8 * 255)) / (3 * 255)
    assert np.allclose(seq.frames[0].data, expect, atol=1e-12)


@pytest.mark.parametrize("size,stride,padded", [
    ((100, 100), 8, (104, 104)),
    ((101, 99), 8, (104, 104)),
    ((64, 64), 8, (64, 64)),
    ((17, 30), 4, (20, 32)),
])
def test_padding_arithmetic(size, stride, padded):
    img = np.random.default_rng(0).random((1,) + size)
    out, pad = pad_to_multiple(img, stride)
    assert out.shape == (1,) + padded
    assert pad.top + pad.bottom == padded[0] - size[0]
    assert abs(pad.top - pad.bottom) <= 1 and abs(pad.left - pad.right) <= 1
    assert (unpad(out, pad) == img).all()


@settings(max_examples=200, deadline=None)
@given(h=st.integers(1, 70), w=st.integers(1, 70), stride=st.sampled_from((1, 2, 4, 8, 16)),
       mode=st.sampled_from(("edge", "constant")), seed=st.integers(0, 2**32 - 1))
def test_pad_unpad_properties(h, w, stride, mode, seed):
    img = np.random.default_rng(seed).random((1, h, w)) + 0.5   # no zero pixels
    out, pad = pad_to_multiple(img, stride, mode=mode)
    assert out.shape[1] % stride == 0 and out.shape[2] % stride == 0
    assert out.shape[1] - h < stride and out.shape[2] - w < stride
    assert (unpad(out, pad) == img).all()
    assert pad.top <= pad.bottom <= pad.top + 1
    assert pad.left <= pad.right <= pad.left + 1
    # the input sits where the split puts it, surrounded by zeros or its border
    top, left = pad.top, pad.left
    rows = np.clip(np.arange(out.shape[1]) - top, 0, h - 1)
    cols = np.clip(np.arange(out.shape[2]) - left, 0, w - 1)
    if mode == "edge":
        expect = img[:, rows][:, :, cols]
    else:
        expect = np.zeros_like(out)
        expect[:, top:top + h, left:left + w] = img
    assert (out == expect).all()


def test_loaded_sequences_are_padded_with_record(tmp_path):
    make_tree(tmp_path, {"seq": 2}, size=(20, 26))
    seq = load_dataset(tmp_path, total_stride=8)[0]
    assert seq.frames[0].shape == (1, 24, 32)
    assert unpad(seq.frames[0].data, seq.padding).shape == (1, 20, 26)
    assert unpad(seq.masks[0].data, seq.padding).sum() == seq.masks[0].data.sum()


def test_clip_sampling_bounds_and_determinism():
    frames = [Tensor(np.zeros((1, 8, 8))) for _ in range(5)]
    masks = [Tensor(np.zeros((1, 8, 8))) for _ in range(5)]
    seq = VideoSequence(name="s", frames=frames, masks=masks)
    starts = [next(sample_clips(seq, np.random.default_rng(i))).start for i in range(20)]
    assert set(starts) <= {0, 1, 2}
    gen_a = sample_clips(seq, np.random.default_rng(42))
    gen_b = sample_clips(seq, np.random.default_rng(42))
    assert [next(gen_a).start for _ in range(10)] == [next(gen_b).start for _ in range(10)]
    short = VideoSequence(name="t", frames=frames[:3], masks=masks[:3])
    only = {next(sample_clips(short, np.random.default_rng(i))).start for i in range(5)}
    assert only == {0}
    clip = next(sample_clips(seq, np.random.default_rng(0)))
    assert isinstance(clip, Clip) and len(clip.frames) == 3 and clip.sequence == "s"


def test_video_sequence_validation():
    frames = [Tensor(np.zeros((1, 8, 8)))] * 2
    with pytest.raises(ValidationError):
        VideoSequence(name="s", frames=frames, masks=[Tensor(np.zeros((1, 8, 8)))])
    with pytest.raises(ValidationError):
        VideoSequence(name="s", frames=[Tensor(np.zeros((1, 8, 8))),
                                        Tensor(np.zeros((1, 4, 4)))], masks=None)


def test_loading_emits_no_warnings(tmp_path):
    make_tree(tmp_path, {"seq0": 3, "seq1": 4})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        load_dataset(tmp_path)
    assert caught == []


@pytest.mark.parametrize("level", [1.5, np.nan])
def test_write_sequence_refuses_a_frame_outside_unit_range_naming_it(tmp_path, level):
    bad = np.full((4, 4), 0.5)
    bad[1, 2] = level
    with pytest.raises(ValidationError, match=r"00001\.pgm: pixel values must lie in \[0, 1\]"):
        write_sequence(tmp_path, "seq", [np.full((4, 4), 0.5), bad], [np.zeros((4, 4))] * 2)
