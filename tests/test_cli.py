"""End-to-end CLI coverage: synth -> train -> eval -> predict, ablate,
verify, flag precedence, and error exits."""

import argparse
import dataclasses
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import lesionseg
from lesionseg import cli
from lesionseg.cli import _add_config_flags, _effective_config, build_parser, main
from lesionseg.config import RunConfig, load_config
from lesionseg.synth import SynthConfig

RES = 48   # roomy enough for the default lesion geometry
REPO = Path(__file__).resolve().parents[1]

# The wrapper pip writes for a console_scripts entry point, minus its
# Windows-only argv[0] fix-up.
CONSOLE_SCRIPT = """#!{python}
import sys
from {module} import {attr}
if __name__ == "__main__":
    sys.exit({attr}())
"""


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One shared synth -> train run that later tests inspect."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    rc = main(["synth", "--out", str(data), "--count", "4", "--seed", "1",
               "--resolution", str(RES), "--frames", "4", "--blur", "0.5",
               "--speckle", "0.1", "--distractors", "0", "--max-speed", "0.5",
               "--val-count", "1"])
    assert rc == 0
    run = root / "run"
    rc = main(["train", "--data", str(data), "--out", str(run),
               "--steps", "10", "--lr", "0.05", "--seed", "0"])
    assert rc == 0
    return root


def test_synth_writes_a_davis_style_tree(pipeline):
    data = pipeline / "data"
    names = sorted(p.name for p in (data / "JPEGImages").iterdir())
    assert names == ["synth000", "synth001", "synth002", "synth003"]
    assert len(list((data / "JPEGImages" / "synth000").glob("*.pgm"))) == 4
    assert (data / "Annotations" / "synth000" / "00000.pgm").is_file()
    train_names = (data / "ImageSets" / "train.txt").read_text().split()
    val_names = (data / "ImageSets" / "val.txt").read_text().split()
    assert len(train_names) == 3 and len(val_names) == 1
    assert not set(train_names) & set(val_names)


def test_train_writes_checkpoint_losses_and_config(pipeline):
    run = pipeline / "run"
    for name in ("manifest.txt", "params.bin", "config.ini", "state.txt"):
        assert (run / "checkpoint" / name).is_file()
    losses = (run / "losses.txt").read_text().splitlines()
    assert len(losses) == 10
    assert all(float(v) > 0 for v in losses)
    echoed = load_config(run / "config.ini")
    assert echoed.steps == 10
    assert echoed.learning_rate == 0.05
    assert echoed.data_root == str(pipeline / "data")


def test_train_prints_progress_every_log_every_steps(pipeline, tmp_path, capsys):
    config = tmp_path / "run.ini"
    config.write_text("[train]\nlog_every = 5\n")
    rc = main(["train", "--config", str(config), "--data", str(pipeline / "data"),
               "--out", str(tmp_path / "run"), "--steps", "10", "--lr", "0.05",
               "--seed", "0"])
    assert rc == 0
    # log_every shapes only the printout: the pipeline run saw the same losses
    text = (tmp_path / "run" / "losses.txt").read_text()
    assert text == (pipeline / "run" / "losses.txt").read_text()
    losses = [float(v) for v in text.split()]
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == [
        f"step 5/10  loss {losses[4]:.5f}  smoothed {np.mean(losses[:5]):.5f}",
        f"step 10/10  loss {losses[9]:.5f}  smoothed {np.mean(losses):.5f}",
        f"done: 10 steps, final smoothed loss {np.mean(losses):.5f}"]


def test_eval_uses_checkpoint_data_root(pipeline, capsys):
    out = pipeline / "eval"
    rc = main(["eval", "--checkpoint", str(pipeline / "run" / "checkpoint"),
               "--out", str(out), "--split", "val", "--dump"])
    assert rc == 0
    table = (out / "metrics.tsv").read_text()
    assert table.splitlines()[0] == "Method\tDice\tIou\tRecall\tMAE"
    assert "checkpoint@10" in table
    assert "checkpoint@10" in capsys.readouterr().out
    detail = (out / "details.tsv").read_text()
    assert detail.startswith("Sequence\t")
    dumped = list((out / "predictions").glob("*/*.pgm"))
    assert len(dumped) == 3   # frames 2..4 of the single val sequence


def test_predict_writes_one_mask_per_later_frame(pipeline):
    out = pipeline / "predict"
    rc = main(["predict", "--checkpoint", str(pipeline / "run" / "checkpoint"),
               "--sequence", "synth002", "--out", str(out)])
    assert rc == 0
    masks = sorted((out / "synth002").glob("*.pgm"))
    assert [m.name for m in masks] == ["00001.pgm", "00002.pgm", "00003.pgm"]


def test_predict_writes_the_masks_eval_dumps(pipeline, tmp_path):
    ckpt = str(pipeline / "run" / "checkpoint")
    (val,) = (pipeline / "data" / "ImageSets" / "val.txt").read_text().split()
    assert main(["eval", "--checkpoint", ckpt, "--out", str(tmp_path / "eval"),
                 "--dump"]) == 0
    assert main(["predict", "--checkpoint", ckpt, "--sequence", val,
                 "--out", str(tmp_path / "predict")]) == 0
    dumped = sorted((tmp_path / "eval" / "predictions" / val).iterdir())
    predicted = sorted((tmp_path / "predict" / val).iterdir())
    assert [p.name for p in dumped] == [p.name for p in predicted] != []
    for a, b in zip(dumped, predicted):
        assert a.read_bytes() == b.read_bytes()


def test_ablate_writes_the_toggle_table(pipeline):
    out = pipeline / "ablate"
    rc = main(["ablate", "--data", str(pipeline / "data"), "--out", str(out),
               "--steps", "2", "--rows", "baseline,full"])
    assert rc == 0
    lines = (out / "ablation.tsv").read_text().splitlines()
    assert lines[0] == "Row\tSFM\tMSFF\tDice\tIou\tRecall\tMAE"
    assert lines[1].startswith("baseline\t-\t-")
    assert lines[2].startswith("full\tx\tx")


def test_verify_subcommand_runs_selected_criteria(tmp_path, capsys):
    rc = main(["verify", "--only", "2,3,4,9", "--workdir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("PASS") == 4
    assert "criterion 2" in out and "criterion 9" in out


def test_flags_override_config_file(pipeline, tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[train]\nsteps = 7\nlearning_rate = 0.5\n"
                   f"[data]\ndata_root = {pipeline / 'data'}\n")
    out = tmp_path / "out"
    rc = main(["train", "--config", str(ini), "--steps", "3", "--out", str(out)])
    assert rc == 0
    echoed = load_config(out / "config.ini")
    assert echoed.steps == 3            # flag beats file
    assert echoed.learning_rate == 0.5  # file beats default


# every config flag with the RunConfig field it sets and a non-default value,
# the choice flag once per non-default choice
CONFIG_FLAGS = [
    (["--data", "/d"], "data_root", "/d"),
    (["--seed", "4"], "seed", 4),
    (["--steps", "9"], "steps", 9),
    (["--lr", "0.25"], "learning_rate", 0.25),
    (["--momentum", "0.5"], "momentum", 0.5),
    (["--lr", "1e-3"], "learning_rate", 1e-3),
    (["--encoder-tap", "3"], "encoder_tap", 3),
    (["--memory-capacity", "1"], "memory_capacity", 1),
    (["--memory-capacity", "5"], "memory_capacity", 5),
    (["--no-sfm"], "use_sfm", False),
    (["--no-msff"], "use_msff", False),
    (["--encoder-tap", "2"], "encoder_tap", 2),
]


@pytest.mark.parametrize("argv,field,value", CONFIG_FLAGS)
@pytest.mark.parametrize("command", ["train", "ablate"])
def test_config_flag_lands_on_its_field(command, argv, field, value):
    args = build_parser().parse_args([command, "--out", "o"] + argv)
    assert _effective_config(args) == dataclasses.replace(RunConfig(), **{field: value})


def test_every_config_flag_is_covered():
    parser = argparse.ArgumentParser()
    _add_config_flags(parser)
    dests = {a.dest for a in parser._actions} - {"help", "config"}
    assert dests == {field for _, field, _ in CONFIG_FLAGS}
    assert dests <= {f.name for f in dataclasses.fields(RunConfig)}


def _subcommand_flags(command):
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    return set(subparsers.choices[command]._option_string_actions)


def test_every_flag_the_readme_names_is_accepted():
    readme = (REPO / "README.md").read_text()
    named = []   # (subcommand, flag)
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        for line in block.splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["lesionseg"] and len(words) > 1:
                named += [(words[1], w) for w in words[2:] if w.startswith("--")]
    toggles = readme.split("Useful toggles:", 1)[1].split("\n\n", 1)[0]
    toggle_flags = re.findall(r"`(--[a-z-]+)", toggles)
    assert named and toggle_flags
    named += [("train", flag) for flag in toggle_flags]
    rejected = [(command, flag) for command, flag in named
                if flag not in _subcommand_flags(command)]
    assert not rejected


def test_synth_without_flags_builds_the_default_config(monkeypatch, tmp_path):
    calls = []

    def record(root, count, cfg, seed, val_count):
        calls.append((count, cfg, seed, val_count))
        return [], []

    monkeypatch.setattr(cli, "make_dataset", record)
    assert main(["synth", "--out", str(tmp_path)]) == 0
    assert calls == [(10, SynthConfig(), 0, None)]


def test_malformed_config_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("steps = 5\n")
    rc = main(["train", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_config_error_names_the_file_on_one_line(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("steps = 5\n")
    assert main(["train", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err
    assert err.count("\n") == 1


def test_negative_seed_exits_2(tmp_path, capsys):
    rc = main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "out"),
               "--seed", "-1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and "seed" in err


def test_fc_reduction_zero_in_config_file_exits_2(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[model]\nfc_reduction = 0\n")
    rc = main(["train", "--config", str(ini), "--data", str(tmp_path),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and "fc_reduction" in err


CORRUPT_FRAMES = {   # what the corruption makes of a frame's bytes
    "magic": lambda b: b"P7" + b[2:],
    "header-not-integer": lambda b: b"P5\nforty-eight 48\n255\n" + b.split(b"\n", 3)[3],
    "truncated": lambda b: b[:-5],
    "header-claims-10^10-pixels": lambda b: b"P5\n100000 100000\n255\nabc",
}


@pytest.mark.parametrize("case", CORRUPT_FRAMES)
def test_train_on_a_corrupt_frame_exits_2_naming_it(pipeline, tmp_path, capsys, case):
    data = tmp_path / "data"
    shutil.copytree(pipeline / "data", data)
    seq = (data / "ImageSets" / "train.txt").read_text().split()[0]
    frame = data / "JPEGImages" / seq / "00001.pgm"
    frame.write_bytes(CORRUPT_FRAMES[case](frame.read_bytes()))
    rc = main(["train", "--data", str(data), "--out", str(tmp_path / "out"), "--steps", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(frame) in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("only", ["42", "x", "2,"])
def test_verify_only_with_no_such_criterion_exits_2(tmp_path, capsys, only):
    rc = main(["verify", "--only", only, "--workdir", str(tmp_path / "w")])
    assert rc == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and "1-9" in err
    assert out == "" and not (tmp_path / "w").exists()


def test_encoder_tap_out_of_range_exits_2_with_the_config_error(tmp_path, capsys):
    rc = main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "out"),
               "--encoder-tap", "5"])
    assert rc == 2
    assert capsys.readouterr().err == "error: encoder_tap must be one of (2, 3, 4), got 5\n"
    assert not (tmp_path / "out").exists()


def test_train_without_data_exits_2(tmp_path, capsys):
    for command in ("train", "ablate"):
        assert main([command, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"error: {command} needs --data (or data_root in the config file)" in err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_checkpoint_without_data_root_exits_2(pipeline, tmp_path, capsys, command):
    ckpt = tmp_path / "checkpoint"
    shutil.copytree(pipeline / "run" / "checkpoint", ckpt)
    config = ckpt / "config.ini"
    config.write_text(re.sub(r"data_root = .*", "data_root = ", config.read_text()))
    extra = ["--sequence", "synth002"] if command == "predict" else []
    rc = main([command, "--checkpoint", str(ckpt), "--out", str(tmp_path / "out"), *extra])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"error: {command} needs --data (or data_root in the checkpoint config)" in err
    assert not (tmp_path / "out").exists()


def test_missing_checkpoint_exits_2(tmp_path, capsys):
    rc = main(["eval", "--checkpoint", str(tmp_path / "ghost"),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "missing" in capsys.readouterr().err


def test_a_stage_width_below_one_in_a_config_file_exits_2(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[model]\nstage_channels = 16, 0, 8\n")
    rc = main(["train", "--config", str(ini), "--data", str(tmp_path),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {ini}: every stage width must be >= 1, got (16, 0, 8)\n")


def test_eval_of_a_checkpoint_with_a_former_key_names_its_config(pipeline, tmp_path, capsys):
    ckpt = tmp_path / "checkpoint"
    shutil.copytree(pipeline / "run" / "checkpoint", ckpt)
    config = ckpt / "config.ini"
    config.write_text(config.read_text().replace("[train]\n", "[train]\nloss_window = 20\n"))
    rc = main(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {config}: key 'loss_window' does not belong in section [train]\n")


def test_eval_of_a_checkpoint_whose_names_do_not_fit_names_it(pipeline, tmp_path, capsys):
    # the full row's tensors under a +msff config: a +msff checkpoint written
    # while that row still built the spatial head looks the same
    ckpt = tmp_path / "checkpoint"
    shutil.copytree(pipeline / "run" / "checkpoint", ckpt)
    config = ckpt / "config.ini"
    config.write_text(config.read_text().replace("use_sfm = true", "use_sfm = false"))
    rc = main(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: checkpoint {ckpt}: parameter name mismatch; missing [], "
                          "unexpected ['fusion.head_spatial."), err
    assert not (tmp_path / "out" / "metrics.tsv").exists()


def test_eval_of_a_nan_checkpoint_exits_2(pipeline, tmp_path, capsys):
    ckpt = tmp_path / "checkpoint"
    shutil.copytree(pipeline / "run" / "checkpoint", ckpt)
    blob = ckpt / "params.bin"
    blob.write_bytes(np.full(blob.stat().st_size // 4, np.nan, dtype="<f4").tobytes())
    rc = main(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "out"),
               "--split", "val"])
    assert rc == 2
    assert "non-finite values" in capsys.readouterr().err
    assert not (tmp_path / "out" / "metrics.tsv").exists()


def test_eval_of_an_overflowing_checkpoint_prints_only_the_error(pipeline, tmp_path, capsys):
    ckpt = tmp_path / "checkpoint"
    shutil.copytree(pipeline / "run" / "checkpoint", ckpt)
    blob = np.full((ckpt / "params.bin").stat().st_size // 4, 3e38, dtype="<f4").tobytes()
    (ckpt / "params.bin").write_bytes(blob)   # finite, so only propagation can refuse it
    state = json.loads((ckpt / "state.txt").read_text())
    state["params_sha256"] = hashlib.sha256(blob).hexdigest()
    (ckpt / "state.txt").write_text(json.dumps(state))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "out"),
                   "--split", "val"])
    assert rc == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: sequence synth\d+, frame 1: the model predicted NaN\n", err), err
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


UNPARSABLE = {   # file, and what the corruption makes of its bytes
    "state-truncated": ("state.txt", lambda b: b[:20]),
    "state-list": ("state.txt", lambda b: b"[1]\n"),
    "state-step-text": ("state.txt", lambda b: b'{"step": "x"}\n'),
    "state-step-bool": ("state.txt", lambda b: b'{"step": true}\n'),
    "state-no-step": ("state.txt", lambda b: b"{}\n"),
    "state-not-utf8": ("state.txt", lambda b: b"\xff" + b),
    "manifest-not-utf8": ("manifest.txt", lambda b: b"\xff" + b),
    "manifest-negative-dim": ("manifest.txt", lambda b: b.replace(b" = ", b" = -", 1)),
    "config-not-utf8": ("config.ini", lambda b: b"\xff" + b),
}


@pytest.mark.parametrize("case", UNPARSABLE)
def test_eval_of_a_checkpoint_with_unparsable_text_exits_2(pipeline, tmp_path, capsys, case):
    name, corrupt = UNPARSABLE[case]
    ckpt = tmp_path / "checkpoint"
    shutil.copytree(pipeline / "run" / "checkpoint", ckpt)
    (ckpt / name).write_bytes(corrupt((ckpt / name).read_bytes()))
    rc = main(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "out"),
               "--split", "val"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err
    assert not (tmp_path / "out" / "metrics.tsv").exists()


@pytest.mark.parametrize("line", ["similarity = paper-literal", "key_scaling = false",
                                  "key_from_gated = true", "use_current_value = true",
                                  "hard_prior = true", "pooling = max",
                                  "prior_mask_mapping = false", "fc_reduction = 2",
                                  "teacher_forcing = true"])
def test_eval_of_a_checkpoint_with_a_retired_switch_set_exits_2(pipeline, tmp_path,
                                                                capsys, line):
    ckpt = tmp_path / "checkpoint"
    shutil.copytree(pipeline / "run" / "checkpoint", ckpt)
    config = ckpt / "config.ini"
    section = "[train]" if line.startswith("teacher_forcing") else "[model]"
    config.write_text(config.read_text().replace(f"{section}\n", f"{section}\n{line}\n"))
    rc = main(["eval", "--checkpoint", str(ckpt), "--out", str(tmp_path / "out")])
    assert rc == 2
    key = line.split(" = ")[0]
    assert f"key {key!r} does not belong in section {section}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "metrics.tsv").exists()


def test_unknown_sequence_exits_2(pipeline, tmp_path, capsys):
    rc = main(["predict", "--checkpoint", str(pipeline / "run" / "checkpoint"),
               "--sequence", "synth999", "--out", str(tmp_path)])
    assert rc == 2
    assert "synth999" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["../x", "."])
def test_predict_of_a_name_that_is_no_sequence_directory_exits_2(pipeline, tmp_path, capsys,
                                                                 name):
    data = tmp_path / "data"
    shutil.copytree(pipeline / "data", data)
    # frames that JPEGImages/../x would reach if the name were not checked
    shutil.copytree(data / "JPEGImages" / "synth002", data / "x")
    rc = main(["predict", "--checkpoint", str(pipeline / "run" / "checkpoint"),
               "--data", str(data), "--sequence", name, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"sequence {name!r} not found" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_predict_on_a_root_without_jpegimages_exits_2(pipeline, tmp_path, capsys):
    rc = main(["predict", "--checkpoint", str(pipeline / "run" / "checkpoint"),
               "--data", str(tmp_path), "--sequence", "synth002", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"dataset root {tmp_path} has no JPEGImages directory" in capsys.readouterr().err


def test_predict_reads_only_the_named_sequence(pipeline, tmp_path, monkeypatch):
    read = []
    for reader in ("read_netpbm", "read_mask"):
        original = getattr(lesionseg.data, reader)
        monkeypatch.setattr(lesionseg.data, reader, lambda path, original=original:
                            read.append(path) or original(path))
    assert main(["predict", "--checkpoint", str(pipeline / "run" / "checkpoint"),
                 "--sequence", "synth002", "--out", str(tmp_path)]) == 0
    frames = [f"JPEGImages/synth002/{i:05d}.pgm" for i in range(4)]
    relative = [Path(path).relative_to(pipeline / "data").as_posix() for path in read]
    assert sorted(relative) == sorted(frames + ["Annotations/synth002/00000.pgm"])


def test_predict_needs_only_the_first_frame_annotation(pipeline, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(pipeline / "data", data)
    (val,) = (data / "ImageSets" / "val.txt").read_text().split()
    later = sorted((data / "Annotations" / val).iterdir())[1:]
    for mask in later:
        mask.unlink()
    ckpt = str(pipeline / "run" / "checkpoint")
    for root, out in ((pipeline / "data", "full"), (data, "first")):
        assert main(["predict", "--checkpoint", ckpt, "--data", str(root),
                     "--sequence", val, "--out", str(tmp_path / out)]) == 0
    full = sorted((tmp_path / "full" / val).iterdir())
    first = sorted((tmp_path / "first" / val).iterdir())
    assert [p.name for p in first] == [p.name for p in full] == [m.name for m in later]
    for a, b in zip(full, first):
        assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()
    # training and evaluation still need every annotation
    for argv in (["train", "--data", str(data), "--split", "val", "--steps", "1"],
                 ["eval", "--checkpoint", ckpt, "--data", str(data)]):
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        assert f"missing annotation {later[0]} for listed frame" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_unknown_ablation_row_exits_2(pipeline, tmp_path, capsys):
    for rows, message in (("turbo", "turbo"), ("full,turbo", "turbo"),
                          (",", "no ablation row"), ("", "no ablation row")):
        rc = main(["ablate", "--data", str(pipeline / "data"),
                   "--out", str(tmp_path), "--rows", rows])
        assert rc == 2
        err = capsys.readouterr().err
        assert message in err and "baseline" in err
        assert not (tmp_path / "ablation.tsv").exists()


def test_split_file_that_is_not_utf8_exits_2(pipeline, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(pipeline / "data", data)
    (data / "ImageSets" / "train.txt").write_bytes(b"\xff\xfe")
    rc = main(["train", "--data", str(data), "--out", str(tmp_path / "run"),
               "--steps", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "train.txt is not UTF-8 text: byte 0 is 0xff" in err


@pytest.mark.parametrize("command", ["train", "eval"])
def test_split_file_naming_a_sequence_twice_exits_2(pipeline, tmp_path, capsys, command):
    data = tmp_path / "data"
    shutil.copytree(pipeline / "data", data)
    split = "train" if command == "train" else "val"
    listing = data / "ImageSets" / f"{split}.txt"
    name = listing.read_text().split()[0]
    listing.write_text(listing.read_text() + name + "\n")
    if command == "train":
        argv = ["train", "--data", str(data), "--steps", "1"]
    else:
        argv = ["eval", "--checkpoint", str(pipeline / "run" / "checkpoint"),
                "--data", str(data)]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(listing) in err
    assert f"sequence {name!r} more than once" in err
    assert not (tmp_path / "out").exists()


def test_eval_of_zero_size_frames_exits_2(pipeline, tmp_path, capsys):
    data = tmp_path / "data"
    shutil.copytree(pipeline / "data", data)
    for image in sorted(data.glob("*/*/*.pgm")):
        image.write_bytes(b"P5\n0 0\n255\n")
    rc = main(["eval", "--checkpoint", str(pipeline / "run" / "checkpoint"),
               "--data", str(data), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "zero-size netpbm image 0x0" in err
    assert str(data) in err
    assert not (tmp_path / "out").exists()


def test_impossible_synth_geometry_exits_2(tmp_path, capsys):
    # default 10x7 lesion cannot stay inside a 16x16 field of view
    rc = main(["synth", "--out", str(tmp_path / "d"), "--count", "1",
               "--resolution", "16"])
    assert rc == 2
    assert "field of view" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, field", [
    ("--max-speed", "nan", "max_speed"),    # wrote a tree of empty masks
    ("--blur", "inf", "blur_sigma"),        # died on an OverflowError
    ("--blur", "nan", "blur_sigma"),        # skipped the blur
    ("--blur", "1e9", "blur_sigma"),        # a kernel of 8e9 taps
])
def test_a_nonfinite_or_impossible_synth_value_exits_2_naming_its_field(
        tmp_path, capsys, flag, value, field):
    rc = main(["synth", "--out", str(tmp_path / "d"), "--count", "1", flag, value])
    assert rc == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "0.1.0" in capsys.readouterr().out


def _project():
    """The ``[project]`` table of the repo's pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(REPO / "pyproject.toml", "rb") as f:
        return tomllib.load(f)["project"]


def _assert_prints_version(exe, env):
    proc = subprocess.run([exe, "--version"], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "0.1.0" in proc.stdout
    # the version is kept in pyproject.toml and in the package; both must agree
    assert proc.stdout.strip() == _project()["version"] == lesionseg.__version__


def test_console_script_is_installed(tmp_path):
    """The declared ``lesionseg`` script, written the way an installer
    writes it, runs the CLI from this checkout."""
    scripts = _project().get("scripts", {})
    assert "lesionseg" in scripts, "[project.scripts] must declare lesionseg"
    ep = importlib.metadata.EntryPoint(name="lesionseg",
                                       value=scripts["lesionseg"],
                                       group="console_scripts")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    script = bin_dir / "lesionseg"
    script.write_text(CONSOLE_SCRIPT.format(
        python=sys.executable, module=ep.module, attr=ep.attr))
    script.chmod(0o755)
    env = dict(os.environ,
               PATH=os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")]),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    exe = shutil.which("lesionseg", path=env["PATH"])
    assert exe == str(script)
    _assert_prints_version(exe, env)


def _release(version):
    return tuple(int(n) for n in re.findall(r"\d+", version)[:2])


def _editable_install_missing():
    """What this interpreter lacks to build an editable wheel offline
    (PEP 660 needs setuptools >= 64; below 70.1 its bdist_wheel is the
    ``wheel`` package's), or None."""
    if importlib.util.find_spec("ensurepip") is None:
        return "ensurepip is not available to create a venv with pip"
    try:
        setuptools = importlib.metadata.version("setuptools")
    except importlib.metadata.PackageNotFoundError:
        return "setuptools is not installed"
    if _release(setuptools) < (64,):
        return f"setuptools {setuptools} < 64 cannot build editable wheels"
    if _release(setuptools) < (70, 1) and importlib.util.find_spec("wheel") is None:
        return (f"setuptools {setuptools} < 70.1 needs the wheel package "
                "for bdist_wheel, and wheel is not installed")
    return None


def test_pip_install_editable_provides_console_script(tmp_path):
    """``pip install -e`` of a copy of the project puts a working
    ``lesionseg`` into the environment's bin directory."""
    missing = _editable_install_missing()
    if missing:
        pytest.skip(missing)
    # the build may write build/ and *.egg-info next to pyproject.toml,
    # so it runs on a copy and the checkout stays clean
    project = tmp_path / "project"
    project.mkdir()
    shutil.copy2(REPO / "pyproject.toml", project)
    shutil.copytree(REPO / "src", project / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    venv = tmp_path / "venv"
    # no PYTHONPATH, so the script imports the installed copy, not this checkout
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    subprocess.run([sys.executable, "-m", "venv", "--system-site-packages",
                    str(venv)], check=True, env=env, timeout=300)
    subprocess.run([str(venv / "bin" / "python"), "-m", "pip", "install",
                    "--no-deps", "--no-index", "--no-build-isolation",
                    "--disable-pip-version-check", "-e", str(project)],
                   check=True, env=env, timeout=300)
    _assert_prints_version(str(venv / "bin" / "lesionseg"), env)


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "lesionseg.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    for sub in ("train", "eval", "ablate", "predict", "synth", "verify"):
        assert sub in proc.stdout
