"""Run-config serialization: round trips, precedence, validation."""

import dataclasses
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from lesionseg.config import (RunConfig, apply_overrides, config_from_text,
                              config_to_text, load_config, save_config)
from lesionseg.errors import ValidationError
from lesionseg.model import TAP_CHOICES, ModelConfig


def test_defaults_build_a_valid_model_config():
    cfg = RunConfig()
    assert isinstance(cfg, ModelConfig)
    assert cfg.stage_channels == (16, 32, 64)
    assert cfg.use_sfm and cfg.use_msff
    assert cfg.memory_capacity == 0  # 0 means unlimited


def test_text_round_trip_is_identity():
    cfg = RunConfig(data_root="/tmp/x", stage_channels=(8, 16), learning_rate=0.25,
                    steps=7, use_msff=False, memory_capacity=3, seed=11)
    assert config_from_text(config_to_text(cfg)) == cfg


def test_file_round_trip(tmp_path):
    cfg = RunConfig(use_sfm=False, encoder_tap=3, momentum=0.5)
    path = tmp_path / "run.ini"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_text_has_expected_sections():
    text = config_to_text(RunConfig())
    for section in ("[data]", "[model]", "[train]", "[run]"):
        assert section in text


def test_parses_booleans_and_tuples():
    text = """
[model]
stage_channels = 4, 8
use_sfm = off
use_msff = YES
"""
    cfg = config_from_text(text)
    assert cfg.stage_channels == (4, 8)
    assert cfg.use_sfm is False
    assert cfg.use_msff is True


def test_unknown_section_rejected():
    with pytest.raises(ValidationError, match="section"):
        config_from_text("[optimizer]\nlearning_rate = 0.1\n")


def test_unknown_key_rejected():
    with pytest.raises(ValidationError, match="does not belong"):
        config_from_text("[train]\nwarmup = 5\n")
    with pytest.raises(ValidationError, match="unknown config key"):
        apply_overrides(RunConfig(), {"warmup": "5"})


def test_key_in_wrong_section_rejected():
    with pytest.raises(ValidationError, match="does not belong"):
        config_from_text("[data]\nsteps = 5\n")


def test_bad_value_types_rejected():
    with pytest.raises(ValidationError, match="steps"):
        config_from_text("[train]\nsteps = soon\n")
    with pytest.raises(ValidationError, match="boolean"):
        config_from_text("[model]\nuse_sfm = maybe\n")


@pytest.mark.parametrize("kwargs", [
    dict(memory_capacity=-1),
    dict(stage_channels=(16, 32, 60)),  # last stage width not divisible by 8
    dict(learning_rate=0.0),
    dict(learning_rate=float("nan")),
    dict(learning_rate=float("inf")),
    dict(steps=-1),
    dict(momentum=1.0),
    dict(momentum=-0.1),
    dict(log_every=0),
    dict(stage_channels=()),
    dict(encoder_tap=1),
    dict(stage_channels=(16, 32), encoder_tap=2),  # tap 2 needs >= 3 stages
    dict(stage_channels=(16, 0, 8)),   # a stage width below 1
    dict(stage_channels=(16, -8)),
])
def test_invalid_configs_rejected(kwargs):
    with pytest.raises((ValidationError, ValueError)):
        RunConfig(**kwargs)


def test_tap_2_accepted_with_three_stages():
    cfg = RunConfig(stage_channels=(16, 32, 64), encoder_tap=2)
    assert cfg.tap_stage_index == 0


def test_overrides_beat_file_values():
    cfg = config_from_text("[train]\nlearning_rate = 0.5\nsteps = 100\n")
    out = apply_overrides(cfg, {"learning_rate": "0.125", "steps": None})
    assert out.learning_rate == 0.125
    assert out.steps == 100  # None means "flag not given"


def test_overrides_accept_python_values():
    out = apply_overrides(RunConfig(), {"use_msff": False, "seed": 3})
    assert out.use_msff is False and out.seed == 3


def test_empty_overrides_return_same_object():
    cfg = RunConfig()
    assert apply_overrides(cfg, {"steps": None}) is cfg


def test_overridden_config_revalidates():
    with pytest.raises(ValidationError):
        apply_overrides(RunConfig(), {"momentum": "2.0"})


def test_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        RunConfig().steps = 5


# -- one schema ----------------------------------------------------------

# config_to_text(RunConfig()): the eleven keys this version writes and reads
DEFAULT_TEXT = """\
[data]
data_root = 

[model]
stage_channels = 16, 32, 64
use_sfm = true
use_msff = true
encoder_tap = 4
memory_capacity = 0

[train]
learning_rate = 0.01
momentum = 0.0
steps = 200
log_every = 20

[run]
seed = 0

"""

# a config.ini in the 25-key format earlier versions wrote: every key that
# is still a setting off its default, and the fourteen former keys in
# FORMER_KEYS at the values those versions wrote
LEGACY_TEXT = """\
[data]
data_root = /data/busv
split_ratio = 0.8
split_seed = 5

[model]
stage_channels = 8, 16
total_stride = 4
feature_channels = 16
use_sfm = false
use_msff = false
pooling = both
encoder_tap = 3
prior_mask_mapping = true
similarity = standard
key_scaling = true
key_from_gated = false
use_current_value = false
hard_prior = false
memory_capacity = 6
fc_reduction = 4

[train]
learning_rate = 0.05
momentum = 0.9
steps = 500
log_every = 10
loss_window = 5
teacher_forcing = false

[run]
seed = 7

"""

LEGACY_CONFIG = RunConfig(
    data_root="/data/busv", stage_channels=(8, 16), use_sfm=False, use_msff=False,
    encoder_tap=3, memory_capacity=6, learning_rate=0.05, momentum=0.9, steps=500,
    log_every=10, seed=7)

# the keys earlier versions wrote and this one refuses, each with its old
# section and the value those versions wrote (as in LEGACY_TEXT)
FORMER_KEYS = {"split_ratio": ("data", "0.8"), "split_seed": ("data", "5"),
               "total_stride": ("model", "4"), "feature_channels": ("model", "16"),
               "similarity": ("model", "standard"), "key_scaling": ("model", "true"),
               "key_from_gated": ("model", "false"),
               "use_current_value": ("model", "false"), "hard_prior": ("model", "false"),
               "pooling": ("model", "both"), "prior_mask_mapping": ("model", "true"),
               "fc_reduction": ("model", "4"), "teacher_forcing": ("train", "false"),
               "loss_window": ("train", "5")}
# the former switches, each at a value other than the one earlier versions wrote
OTHER_VALUES = {"similarity": "paper-literal", "key_scaling": "false",
                "key_from_gated": "true", "use_current_value": "true",
                "hard_prior": "true", "pooling": "max", "prior_mask_mapping": "false",
                "fc_reduction": "2", "teacher_forcing": "true"}
# the keys once derived from stage_channels, at values that disagree with
# (16, 32) or do not parse
DERIVED_OTHER_VALUES = {"total_stride": ("8", "eight"), "feature_channels": ("64",)}


def test_schema_field_counts_and_derived_stride_and_width():
    assert len(dataclasses.fields(RunConfig)) == 11
    assert not set(FORMER_KEYS) & {f.name for f in dataclasses.fields(RunConfig)}
    cfg = RunConfig(stage_channels=(8, 16))
    assert (cfg.total_stride, cfg.feature_channels) == (4, 16)
    # the 5 [model] keys are ModelConfig's fields, declared there only
    assert len(dataclasses.fields(ModelConfig)) == 5


def test_default_text_is_pinned():
    assert config_to_text(RunConfig()) == DEFAULT_TEXT


def test_legacy_25_key_text_is_refused():
    assert len([line for line in LEGACY_TEXT.splitlines() if " = " in line]) == 25
    with pytest.raises(ValidationError, match="does not belong"):
        config_from_text(LEGACY_TEXT)


def test_legacy_text_without_its_former_keys_loads_to_the_same_values():
    kept = [line for line in LEGACY_TEXT.splitlines()
            if line.split(" = ")[0] not in FORMER_KEYS]
    assert len(kept) == len(LEGACY_TEXT.splitlines()) - len(FORMER_KEYS)
    assert config_from_text("\n".join(kept)) == LEGACY_CONFIG


@pytest.mark.parametrize("key", FORMER_KEYS)
def test_former_key_at_its_old_value_is_refused_naming_it(key):
    """Refused by the one section rule, at the value earlier versions wrote
    and, for the two keys once derived from stage_channels, also at values
    that disagree with it or do not parse."""
    section, value = FORMER_KEYS[key]
    assert f"{key} = {value}\n" in LEGACY_TEXT
    stages = "stage_channels = 16, 32\n" if section == "model" else ""
    for v in (value,) + DERIVED_OTHER_VALUES.get(key, ()):
        with pytest.raises(ValidationError, match=f"key '{key}' does not belong in section "
                                                  f"\\[{section}\\]"):
            config_from_text(f"[{section}]\n{stages}{key} = {v}\n")


@pytest.mark.parametrize("key,section", [
    ("split_seed", "model"), ("split_ratio", "train"),
    ("total_stride", "data"), ("feature_channels", "run"), ("loss_window", "model")])
def test_retired_keys_only_in_their_old_section(key, section):
    with pytest.raises(ValidationError, match="does not belong"):
        config_from_text(f"[{section}]\n{key} = 1\n")


@pytest.mark.parametrize("key,value", [
    (key, value) for key, other in OTHER_VALUES.items()
    for value in (other, "maybe")] + [("similarity", "Standard"), ("pooling", "Both")])
def test_retired_switch_at_another_value_is_refused(key, value):
    section, _ = FORMER_KEYS[key]
    with pytest.raises(ValidationError, match=key):
        config_from_text(f"[{section}]\n{key} = {value}\n")


@pytest.mark.parametrize("root", ["/tmp/100%data", "/tmp/a%(b)s"])
def test_percent_in_values_round_trips(root, tmp_path):
    cfg = RunConfig(data_root=root)
    assert config_from_text(config_to_text(cfg)) == cfg
    save_config(cfg, tmp_path / "run.ini")
    assert load_config(tmp_path / "run.ini").data_root == root


@pytest.mark.parametrize("text", [
    "steps = 5\n",                                  # no section header
    "[train]\nsteps = 5\nsteps = 6\n",              # duplicate key
    "[train]\nsteps = 5\n[train]\nseed = 1\n",      # duplicate section
    "[train]\nsteps\n",                             # line without '='
])
def test_malformed_text_is_a_validation_error(text):
    with pytest.raises(ValidationError, match="malformed"):
        config_from_text(text)


def test_malformed_file_error_names_the_file_on_one_line(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("steps = 5\n")
    with pytest.raises(ValidationError, match="malformed") as info:
        load_config(bad)
    assert str(bad) in str(info.value)
    assert "\n" not in str(info.value)


def test_negative_seed_rejected():
    with pytest.raises(ValidationError, match="seed"):
        RunConfig(seed=-1)
    with pytest.raises(ValidationError, match="seed"):
        config_from_text("[run]\nseed = -1\n")


@pytest.mark.parametrize("reduction", [0, -2])
def test_fc_reduction_below_one_rejected(reduction, tmp_path):
    # the ratio is fixed at 4: no longer a field, and refused by name in a file
    with pytest.raises(TypeError, match="fc_reduction"):
        RunConfig(fc_reduction=reduction)
    path = tmp_path / "run.ini"
    path.write_text(f"[model]\nfc_reduction = {reduction}\n")
    with pytest.raises(ValidationError, match="fc_reduction"):
        load_config(path)


def _stage_channels():
    inner = st.lists(st.integers(1, 64), max_size=3)
    return st.tuples(inner, st.integers(1, 8)).map(lambda t: tuple(t[0]) + (8 * t[1],))


_text = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp")),
                max_size=20)
_finite = dict(allow_nan=False, allow_infinity=False)

FIELD_STRATEGIES = {
    "data_root": _text.filter(lambda s: s == s.strip()),
    "stage_channels": _stage_channels(),
    "use_sfm": st.booleans(),
    "use_msff": st.booleans(),
    "encoder_tap": st.sampled_from(TAP_CHOICES),
    "memory_capacity": st.integers(0, 10_000),
    "learning_rate": st.floats(min_value=0.0, exclude_min=True, **_finite),
    "momentum": st.floats(min_value=0.0, max_value=1.0, exclude_max=True, **_finite),
    "steps": st.integers(0, 10**9),
    "log_every": st.integers(1, 10**6),
    "seed": st.integers(0, 2**63 - 1),
}


def test_every_field_has_a_strategy():
    assert set(FIELD_STRATEGIES) == {f.name for f in dataclasses.fields(RunConfig)}


@settings(max_examples=200, deadline=None)
@given(st.fixed_dictionaries(FIELD_STRATEGIES))
def test_text_round_trip_over_every_field(values):
    # the coarse tap needs 5 - encoder_tap stages
    assume(len(values["stage_channels"]) >= 5 - values["encoder_tap"])
    cfg = RunConfig(**values)
    assert config_from_text(config_to_text(cfg)) == cfg


def test_readme_example_loads():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = config_from_text(example)
    assert (cfg.use_sfm, cfg.encoder_tap, cfg.steps) == (True, 4, 500)
