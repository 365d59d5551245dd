"""Checkpoint persistence: manifest + float32 blob round trips."""

import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lesionseg import checkpoint
from lesionseg.checkpoint import (BLOB, CONFIG, MANIFEST, STATE,
                                  load_checkpoint, save_checkpoint)
from lesionseg.config import RunConfig
from lesionseg.errors import ValidationError
from lesionseg.model import SegmentationModel

SMALL = RunConfig(stage_channels=(4, 8))


def small_model(seed=0):
    return SegmentationModel(SMALL, seed=seed)


def test_round_trip_is_bitwise(tmp_path):
    model = small_model(seed=3)
    save_checkpoint(tmp_path / "ck", model, SMALL, step=17)
    loaded, cfg, step, rng_state = load_checkpoint(tmp_path / "ck")
    assert step == 17
    assert cfg == SMALL
    assert rng_state is None
    ours = model.parameters()
    theirs = loaded.parameters()
    assert ours.keys() == theirs.keys()
    for name in ours:
        assert (ours[name].data == theirs[name].data).all(), name


def test_save_quantizes_in_memory(tmp_path):
    model = small_model()
    # float64 Xavier draws are generically not float32-representable
    before = {n: p.data.copy() for n, p in model.parameters().items()}
    save_checkpoint(tmp_path / "ck", model, SMALL)
    changed = False
    for name, p in model.parameters().items():
        assert (p.data == p.data.astype("<f4").astype(np.float64)).all()
        changed |= not (p.data == before[name]).all()
    assert changed


def test_save_replaces_an_existing_checkpoint(tmp_path):
    ck = tmp_path / "ck"
    save_checkpoint(ck, small_model(seed=1), SMALL, step=1)
    (ck / "stray.txt").write_text("left by hand\n")
    model = small_model(seed=2)
    save_checkpoint(ck, model, SMALL, step=2)
    assert sorted(p.name for p in ck.iterdir()) == sorted((BLOB, CONFIG, MANIFEST, STATE))
    assert [p.name for p in tmp_path.iterdir()] == ["ck"]
    loaded, _, step, _ = load_checkpoint(ck)
    assert step == 2
    for name, p in model.parameters().items():
        assert loaded.parameters()[name].data.tobytes() == p.data.tobytes(), name


def test_a_save_that_fails_partway_leaves_the_previous_checkpoint(tmp_path, monkeypatch):
    ck = tmp_path / "ck"
    model = small_model(seed=1)
    save_checkpoint(ck, model, SMALL, step=1)
    files = {p.name: p.read_bytes() for p in ck.iterdir()}

    def fail(_):   # called after params.bin is written
        raise OSError("no space left on device")

    monkeypatch.setattr(checkpoint, "config_to_text", fail)
    with pytest.raises(OSError, match="no space"):
        save_checkpoint(ck, small_model(seed=2), SMALL, step=2)
    assert [p.name for p in tmp_path.iterdir()] == ["ck"]
    assert {p.name: p.read_bytes() for p in ck.iterdir()} == files
    loaded, _, step, _ = load_checkpoint(ck)
    assert step == 1
    for name, p in model.parameters().items():
        assert loaded.parameters()[name].data.tobytes() == p.data.tobytes(), name


def test_rng_state_resumes_the_stream(tmp_path):
    model = small_model()
    rng = np.random.default_rng(99)
    rng.integers(0, 10, 5)   # advance past the seed state
    save_checkpoint(tmp_path / "ck", model, SMALL, rng=rng)
    expected = rng.integers(0, 1000, 8)
    _, _, _, state = load_checkpoint(tmp_path / "ck")
    resumed = np.random.default_rng()
    resumed.bit_generator.state = state
    assert (resumed.integers(0, 1000, 8) == expected).all()


def test_manifest_layout(tmp_path):
    model = small_model()
    save_checkpoint(tmp_path / "ck", model, SMALL)
    lines = (tmp_path / "ck" / MANIFEST).read_text().splitlines()
    assert len(lines) == len(model.parameters())
    assert lines[0].split(" = ")[0] in model.parameters()
    total = sum(p.size for p in model.parameters().values())
    assert (tmp_path / "ck" / BLOB).stat().st_size == 4 * total


def test_config_echo_is_loadable_ini(tmp_path):
    save_checkpoint(tmp_path / "ck", small_model(), SMALL, step=1)
    text = (tmp_path / "ck" / CONFIG).read_text()
    assert "[model]" in text and "stage_channels = 4, 8" in text


def test_missing_component_raises(tmp_path):
    save_checkpoint(tmp_path / "ck", small_model(), SMALL)
    (tmp_path / "ck" / STATE).unlink()
    with pytest.raises(FileNotFoundError, match=STATE):
        load_checkpoint(tmp_path / "ck")


def test_truncated_blob_raises(tmp_path):
    save_checkpoint(tmp_path / "ck", small_model(), SMALL)
    blob = tmp_path / "ck" / BLOB
    blob.write_bytes(blob.read_bytes()[:-8])
    with pytest.raises(ValidationError, match="truncated"):
        load_checkpoint(tmp_path / "ck")


def _shift_offset(ck, index, delta):
    lines = (ck / MANIFEST).read_text().splitlines()
    head, offset = lines[index].rsplit(" @ ", 1)
    lines[index] = f"{head} @ {int(offset) + delta}"
    (ck / MANIFEST).write_text("\n".join(lines) + "\n")
    return head.split(" = ")[0]


def test_trailing_blob_bytes_raise(tmp_path):
    save_checkpoint(tmp_path / "ck", small_model(), SMALL)
    blob = tmp_path / "ck" / BLOB
    blob.write_bytes(blob.read_bytes() + bytes(4))
    with pytest.raises(ValidationError, match="4 bytes after its last tensor"):
        load_checkpoint(tmp_path / "ck")


@pytest.mark.parametrize("index", [0, 1])
def test_manifest_gap_raises(tmp_path, index):
    save_checkpoint(tmp_path / "ck", small_model(), SMALL)
    name = _shift_offset(tmp_path / "ck", index, 4)
    with pytest.raises(ValidationError, match=f"tensor {name} at byte"):
        load_checkpoint(tmp_path / "ck")


def test_manifest_overlap_raises(tmp_path):
    save_checkpoint(tmp_path / "ck", small_model(), SMALL)
    name = _shift_offset(tmp_path / "ck", 1, -4)
    with pytest.raises(ValidationError, match=f"tensor {name} at byte"):
        load_checkpoint(tmp_path / "ck")


def test_non_finite_parameter_raises_at_load(tmp_path):
    save_checkpoint(tmp_path / "ck", small_model(), SMALL)
    second = (tmp_path / "ck" / MANIFEST).read_text().splitlines()[1]
    name, offset = second.split(" = ")[0], int(second.rsplit(" @ ", 1)[1])
    blob = bytearray((tmp_path / "ck" / BLOB).read_bytes())
    blob[offset:offset + 4] = np.array([np.inf], dtype="<f4").tobytes()
    (tmp_path / "ck" / BLOB).write_bytes(bytes(blob))
    with pytest.raises(ValidationError, match=f"parameter {name} holds non-finite"):
        load_checkpoint(tmp_path / "ck")


def test_flipped_blob_bit_fails_the_hash(tmp_path):
    save_checkpoint(tmp_path / "ck", small_model(), SMALL)
    blob = bytearray((tmp_path / "ck" / BLOB).read_bytes())
    blob[0] ^= 0x01   # lowest mantissa bit of the first weight: still finite
    (tmp_path / "ck" / BLOB).write_bytes(bytes(blob))
    with pytest.raises(ValidationError, match=f"{BLOB} does not match the sha256"):
        load_checkpoint(tmp_path / "ck")


def test_state_without_a_string_sha256_is_refused(tmp_path):
    save_checkpoint(tmp_path / "ck", small_model(seed=2), SMALL, step=4)
    state_path = tmp_path / "ck" / STATE
    state = json.loads(state_path.read_text())
    del state["params_sha256"]
    for recorded in (0, ["00"], None):   # None: no hash line at all
        stored = state if recorded is None else {**state, "params_sha256": recorded}
        state_path.write_text(json.dumps(stored, indent=1) + "\n")
        with pytest.raises(ValidationError, match=f"{STATE} must hold .* params_sha256"):
            load_checkpoint(tmp_path / "ck")
    # with the hash line deleted, a flipped blob bit is still refused
    blob = bytearray((tmp_path / "ck" / BLOB).read_bytes())
    blob[0] ^= 0x01
    (tmp_path / "ck" / BLOB).write_bytes(bytes(blob))
    with pytest.raises(ValidationError, match=STATE):
        load_checkpoint(tmp_path / "ck")


def test_malformed_manifest_raises(tmp_path):
    save_checkpoint(tmp_path / "ck", small_model(), SMALL)
    (tmp_path / "ck" / MANIFEST).write_text("encoder.weight 4x4x3x3\n")
    with pytest.raises(ValidationError, match="malformed"):
        load_checkpoint(tmp_path / "ck")


def test_zero_step_training_checkpoints_the_initialization(tmp_path):
    import dataclasses

    from lesionseg.synth import SynthConfig, synth_generate
    from lesionseg.train import train

    tiny = SynthConfig(resolution=16, frames=3, axes=(3.0, 2.0), max_speed=0.5,
                       distractors=0)
    cfg = dataclasses.replace(SMALL, steps=0)
    result = train(cfg, [synth_generate(tiny, 0)])
    save_checkpoint(tmp_path / "ck", result.model, cfg)
    fresh = small_model(seed=cfg.seed)
    loaded, _, _, _ = load_checkpoint(tmp_path / "ck")
    for name, p in fresh.parameters().items():
        quantized = p.data.astype("<f4").astype(np.float64)
        assert (loaded.parameters()[name].data == quantized).all(), name


def test_architecture_comes_from_the_stored_config(tmp_path):
    cfg = RunConfig(stage_channels=(4, 8), use_msff=False, use_sfm=False)
    model = SegmentationModel(cfg, seed=0)
    save_checkpoint(tmp_path / "ck", model, cfg)
    loaded, loaded_cfg, _, _ = load_checkpoint(tmp_path / "ck")
    assert loaded_cfg.use_msff is False
    assert loaded.parameters().keys() == model.parameters().keys()


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """One small checkpoint with an rng state, and its parameters."""
    ck = tmp_path_factory.mktemp("fuzz") / "ck"
    model = small_model(seed=5)
    save_checkpoint(ck, model, SMALL, step=9, rng=np.random.default_rng(4))
    return ck, {name: p.data.copy() for name, p in model.parameters().items()}


def _truncate(data: bytes, draw) -> bytes:
    return data[:draw(st.integers(0, len(data)))]


def _extend(data: bytes, draw) -> bytes:
    return data + draw(st.binary(min_size=1, max_size=64))


def _flip_bit(data: bytes, draw) -> bytes:
    bit = draw(st.integers(0, 8 * len(data) - 1))
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def _replace_byte(data: bytes, draw) -> bytes:
    out = bytearray(data)
    out[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(out)


MUTANTS = [(BLOB, _truncate), (BLOB, _extend), (BLOB, _flip_bit),
           (MANIFEST, _truncate), (MANIFEST, _replace_byte), (STATE, _truncate)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(mutant=st.sampled_from(MUTANTS), data=st.data())
def test_a_corrupted_checkpoint_is_refused_or_loads_unchanged(saved, mutant, data):
    ck, params = saved
    name, mutate = mutant
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "ck"
        shutil.copytree(ck, copy)
        (copy / name).write_bytes(mutate((ck / name).read_bytes(), data.draw))
        try:
            loaded, cfg, step, rng_state = load_checkpoint(copy)
        except ValidationError:
            return
    assert (cfg, step) == (SMALL, 9)
    assert rng_state == np.random.default_rng(4).bit_generator.state
    for pname, value in params.items():
        assert loaded.parameters()[pname].data.tobytes() == value.tobytes(), pname
