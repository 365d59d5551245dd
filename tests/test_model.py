"""Model assembly: toggles, tap selection, parameter registry."""

import numpy as np
import pytest

from lesionseg.autodiff import Tensor
from lesionseg.config import RunConfig, config_from_text
from lesionseg.errors import ValidationError
from lesionseg.model import ModelConfig, SegmentationModel

SMALL_CHANNELS = (4, 8)


def small_config(**kw):
    return ModelConfig(stage_channels=SMALL_CHANNELS, **kw)


def test_config_validation():
    with pytest.raises(ValidationError):
        ModelConfig(stage_channels=())
    with pytest.raises(ValidationError):
        ModelConfig(encoder_tap=5)
    with pytest.raises(ValidationError):
        ModelConfig(memory_capacity=-1)   # 0 means unlimited
    with pytest.raises(ValidationError):
        small_config(encoder_tap=2)   # third-last stage needs 3 stages


@pytest.mark.parametrize("reduction", [0, -1])
def test_fc_reduction_below_one_rejected(reduction):
    # 0 used to divide by zero in FcHead and a negative value gave hidden=1;
    # the ratio is now fixed at 4, so no config can set it
    with pytest.raises(TypeError, match="fc_reduction"):
        ModelConfig(fc_reduction=reduction)
    with pytest.raises(ValidationError, match="fc_reduction"):
        config_from_text(f"[model]\nfc_reduction = {reduction}\n")


def test_tap_stage_index():
    assert ModelConfig(encoder_tap=4).tap_stage_index == 2
    assert ModelConfig(encoder_tap=3).tap_stage_index == 1
    assert ModelConfig(encoder_tap=2).tap_stage_index == 0


@pytest.mark.parametrize("tap", [2, 3, 4])
def test_coarse_tap_shape_per_stage(tap):
    model = SegmentationModel(ModelConfig(encoder_tap=tap), seed=0)
    emb = model.encoder.encode(Tensor(np.random.default_rng(0).random((1, 64, 64))))
    coarse = model.coarse_tap(emb.skips)
    assert coarse.shape == (8, 8, 8)   # C/8 at feature resolution for every tap


def test_default_parameter_count():
    params = SegmentationModel(ModelConfig(), seed=0).parameters()
    assert sum(p.size for p in params.values()) == 151673
    assert len(params) == 44


def test_msff_row_has_no_spatial_head():
    model = SegmentationModel(ModelConfig(use_sfm=False), seed=0)
    assert model.fusion.head_spatial is None
    assert sum(p.size for p in model.parameters().values()) == 151673 - 808


# Checkpoint tensor names, blob order and shapes of the default widths.
# Every row shares the encoder and decoder; the rows differ in what follows.
SHARED_PARAMETERS = [
    ("encoder.stage0.down.weight", (16, 2, 3, 3)), ("encoder.stage0.down.bias", (16,)),
    ("encoder.stage0.res1.weight", (16, 16, 3, 3)), ("encoder.stage0.res1.bias", (16,)),
    ("encoder.stage0.res2.weight", (16, 16, 3, 3)), ("encoder.stage0.res2.bias", (16,)),
    ("encoder.stage1.down.weight", (32, 16, 3, 3)), ("encoder.stage1.down.bias", (32,)),
    ("encoder.stage1.res1.weight", (32, 32, 3, 3)), ("encoder.stage1.res1.bias", (32,)),
    ("encoder.stage1.res2.weight", (32, 32, 3, 3)), ("encoder.stage1.res2.bias", (32,)),
    ("encoder.stage2.down.weight", (64, 32, 3, 3)), ("encoder.stage2.down.bias", (64,)),
    ("encoder.stage2.res1.weight", (64, 64, 3, 3)), ("encoder.stage2.res1.bias", (64,)),
    ("encoder.stage2.res2.weight", (64, 64, 3, 3)), ("encoder.stage2.res2.bias", (64,)),
    ("encoder.key_head.weight", (8, 64, 1, 1)), ("encoder.key_head.bias", (8,)),
    ("encoder.value_head.weight", (32, 64, 1, 1)), ("encoder.value_head.bias", (32,)),
    ("decoder.block0.weight", (32, 64, 3, 3)), ("decoder.block0.bias", (32,)),
    ("decoder.block1.weight", (16, 48, 3, 3)), ("decoder.block1.bias", (16,)),
    ("decoder.head.weight", (1, 16, 1, 1)), ("decoder.head.bias", (1,)),
]
CONCAT_PARAMETERS = [("reduce.reduce.weight", (32, 64, 1, 1)), ("reduce.reduce.bias", (32,))]
# the fusion block of the +msff row; with the spatial branch it also has
# SPATIAL_HEAD, built between the temporal and the coarse head
MSFF_PARAMETERS = [
    ("tap_proj.weight", (8, 64, 1, 1)), ("tap_proj.bias", (8,)),
    ("fusion.lift.weight", (32, 8, 1, 1)), ("fusion.lift.bias", (32,)),
    ("fusion.head_temporal.w1", (8, 64)), ("fusion.head_temporal.b1", (8,)),
    ("fusion.head_temporal.w2", (32, 8)), ("fusion.head_temporal.b2", (32,)),
    ("fusion.head_coarse.w1", (8, 64)), ("fusion.head_coarse.b1", (8,)),
    ("fusion.head_coarse.w2", (32, 8)), ("fusion.head_coarse.b2", (32,)),
]
SPATIAL_HEAD = [
    ("fusion.head_spatial.w1", (8, 64)), ("fusion.head_spatial.b1", (8,)),
    ("fusion.head_spatial.w2", (32, 8)), ("fusion.head_spatial.b2", (32,)),
]
FUSION_PARAMETERS = MSFF_PARAMETERS[:8] + SPATIAL_HEAD + MSFF_PARAMETERS[8:]


@pytest.mark.parametrize("toggles, expected", [
    ({}, SHARED_PARAMETERS + FUSION_PARAMETERS),                     # default
    ({"use_sfm": False, "use_msff": False}, SHARED_PARAMETERS),      # baseline
    ({"use_sfm": True, "use_msff": False}, SHARED_PARAMETERS + CONCAT_PARAMETERS),   # +sfm
    ({"use_sfm": False, "use_msff": True}, SHARED_PARAMETERS + MSFF_PARAMETERS),     # +msff
    ({"use_sfm": True, "use_msff": True}, SHARED_PARAMETERS + FUSION_PARAMETERS),    # full
], ids=["default", "baseline", "+sfm", "+msff", "full"])
def test_parameter_names_order_and_shapes(toggles, expected):
    params = SegmentationModel(ModelConfig(**toggles), seed=0).parameters()
    assert [(name, p.shape) for name, p in params.items()] == expected


def test_run_config_builds_the_default_model_network():
    a = SegmentationModel(RunConfig(), seed=0).parameters()
    b = SegmentationModel(ModelConfig(), seed=0).parameters()
    assert a.keys() == b.keys()
    assert all(a[k].data.tobytes() == b[k].data.tobytes() for k in a)


def test_merge_baseline_is_identity():
    model = SegmentationModel(small_config(use_sfm=False, use_msff=False), seed=1)
    assert model.fusion is None and model.reduce is None and model.tap_proj is None
    y = Tensor(np.random.default_rng(1).standard_normal((4, 4, 4)))
    assert model.merge_branches(y, None, []) is y


def test_merge_concat_reduce_path():
    model = SegmentationModel(small_config(use_sfm=True, use_msff=False), seed=2)
    assert model.fusion is None and model.reduce is not None
    y = Tensor(np.random.default_rng(2).standard_normal((4, 4, 4)))
    z = Tensor(np.random.default_rng(3).standard_normal((4, 4, 4)))
    merged = model.merge_branches(y, z, [])
    assert merged.shape == (4, 4, 4)


def test_toggle_parameter_sets():
    full = set(SegmentationModel(small_config(), seed=0).parameters())
    base = set(SegmentationModel(small_config(use_sfm=False, use_msff=False),
                                 seed=0).parameters())
    concat = set(SegmentationModel(small_config(use_msff=False), seed=0).parameters())
    assert base < full
    assert any(n.startswith("fusion.") for n in full - base)
    assert any(n.startswith("reduce.") for n in concat - base)


def test_seed_determinism():
    a = SegmentationModel(small_config(), seed=5).parameters()
    b = SegmentationModel(small_config(), seed=5).parameters()
    c = SegmentationModel(small_config(), seed=6).parameters()
    assert all((a[k].data == b[k].data).all() for k in a)
    assert any((a[k].data != c[k].data).any() for k in a)


def test_load_parameter_data_round_trip():
    model = SegmentationModel(small_config(), seed=7)
    snapshot = {k: v.data.copy() for k, v in model.parameters().items()}
    for p in model.parameters().values():
        p.data = p.data + 1.0
    model.load_parameter_data(snapshot)
    assert all((model.parameters()[k].data == snapshot[k]).all() for k in snapshot)
    with pytest.raises(ValidationError, match="name mismatch"):
        model.load_parameter_data({"bogus": np.zeros(1)})
    bad = dict(snapshot)
    first = next(iter(bad))
    bad[first] = np.zeros((1, 2, 3))
    with pytest.raises(ValidationError, match="shape"):
        model.load_parameter_data(bad)
