"""Training loop, optimizer, and the evaluation/ablation drivers."""

import dataclasses
import warnings

import numpy as np
import pytest

from lesionseg.autodiff import Tape, Tensor
from lesionseg.backbone import Encoder
from lesionseg.config import RunConfig
from lesionseg.data import Clip
from lesionseg.errors import TrainingDivergedError, ValidationError
from lesionseg.evaluate import (ABLATION_ROWS, ablate, ablation_table,
                                evaluate)
from lesionseg.model import ModelConfig, SegmentationModel
from lesionseg.synth import SynthConfig, synth_generate
from lesionseg.train import LOSS_WINDOW, SGD, TrainResult, clip_loss, smoothed, train

TINY = SynthConfig(resolution=16, frames=5, axes=(3.0, 2.0), max_speed=0.5,
                   distractors=0)
SMALL = RunConfig(stage_channels=(4, 8), steps=10, learning_rate=0.05)


def tiny_sequences(n=2):
    return [dataclasses.replace(synth_generate(TINY, s), name=f"seq{s}")
            for s in range(n)]


def tiny_clip():
    seq = tiny_sequences(1)[0]
    return Clip(frames=tuple(seq.frames[:3]), masks=tuple(seq.masks[:3]),
                sequence=seq.name, start=0)


# -- optimizer --------------------------------------------------------------


def test_sgd_plain_update():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    p.grad = np.array([10.0, -4.0])
    SGD(learning_rate=0.1).apply({"p": p})
    assert np.allclose(p.data, [0.0, 2.4])


def test_sgd_momentum_accumulates():
    p = Tensor(np.zeros(1), requires_grad=True)
    opt = SGD(learning_rate=1.0, momentum=0.5)
    for _ in range(2):
        p.grad = np.ones(1)
        opt.apply({"p": p})
    # updates were v1 = 1 then v2 = 0.5 + 1
    assert np.allclose(p.data, [-2.5])


def test_sgd_skips_params_without_grad():
    p = Tensor(np.array([3.0]), requires_grad=True)
    SGD(learning_rate=0.5).apply({"p": p})
    assert p.data[0] == 3.0


# -- loss bookkeeping --------------------------------------------------------


def test_smoothed_is_a_trailing_mean():
    assert smoothed([100.0] + [1.0] * (LOSS_WINDOW - 1) + [3.0]) == 1.1
    assert smoothed([2.0, 4.0]) == 3.0   # fewer than LOSS_WINDOW


def test_train_result_counts_steps():
    r = TrainResult(model=None, losses=[0.5, 0.4])
    assert r.steps == 2


# -- the training loop --------------------------------------------------------


def test_train_reduces_the_smoothed_loss():
    cfg = dataclasses.replace(SMALL, steps=40)
    result = train(cfg, tiny_sequences())
    assert smoothed(result.losses) < 0.6 * float(np.mean(result.losses[:10]))


def test_train_is_bitwise_deterministic():
    runs = [train(SMALL, tiny_sequences()) for _ in range(2)]
    assert runs[0].losses == runs[1].losses
    a, b = (r.model.parameters() for r in runs)
    assert all((a[n].data == b[n].data).all() for n in a)


def test_seed_changes_the_run():
    base = train(SMALL, tiny_sequences()).losses
    moved = train(dataclasses.replace(SMALL, seed=5), tiny_sequences()).losses
    assert base != moved


def test_clip_losses_are_positive_and_finite():
    result = train(SMALL, tiny_sequences())
    assert len(result.losses) == SMALL.steps
    assert all(np.isfinite(v) and v > 0 for v in result.losses)


def test_log_sees_at_step_k_the_model_a_k_step_run_ends_with():
    cfg = dataclasses.replace(SMALL, steps=6, momentum=0.9)
    seen = {}

    def snapshot(result):
        params = result.model.parameters()
        seen[result.steps] = (list(result.losses),
                              {n: p.data.tobytes() for n, p in params.items()})
        evaluate(result.model, tiny_sequences(1))   # scoring in passing leaves the run as is

    train(cfg, tiny_sequences(), log=snapshot)
    assert sorted(seen) == list(range(1, cfg.steps + 1))   # one call per step
    for k in (1, 4, cfg.steps):
        short = train(dataclasses.replace(cfg, steps=k), tiny_sequences())
        params = short.model.parameters()
        assert seen[k] == (short.losses, {n: p.data.tobytes() for n, p in params.items()})


def test_unusable_sequences_are_skipped_with_warnings():
    good = tiny_sequences(1)[0]
    short = dataclasses.replace(
        good, name="short", frames=good.frames[:2], masks=good.masks[:2])
    bare = dataclasses.replace(good, name="bare", masks=None)
    with pytest.warns(UserWarning):
        result = train(SMALL, [short, bare, good])
    assert result.steps == SMALL.steps


def test_no_usable_sequence_raises():
    bare = dataclasses.replace(tiny_sequences(1)[0], masks=None)
    with pytest.raises(ValidationError, match="trainable"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        train(SMALL, [bare])


def test_absurd_learning_rate_diverges_with_context():
    cfg = dataclasses.replace(SMALL, learning_rate=1e160)
    with pytest.raises(TrainingDivergedError, match="lower the learning rate"), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")   # float64 overflow en route to nan
        train(cfg, tiny_sequences())


def test_clip_loss_returns_two_probability_maps():
    model = train(dataclasses.replace(SMALL, steps=0), tiny_sequences()).model
    loss, preds = clip_loss(model, tiny_clip())
    assert loss.item() > 0
    assert len(preds) == 2
    for p in preds:
        assert p.shape == (1, 16, 16)
        assert ((p.data > 0) & (p.data < 1)).all()


# every ablation row, and the full model at the coarse taps a 3-stage encoder allows
ROWS = {"full": {}, "+sfm": {"use_msff": False}, "+msff": {"use_sfm": False},
        "baseline": {"use_sfm": False, "use_msff": False},
        "tap-2": {"encoder_tap": 2}, "tap-3": {"encoder_tap": 3}}


@pytest.mark.parametrize("row", ROWS)
def test_one_clip_backward_reaches_every_parameter(row):
    model = SegmentationModel(ModelConfig(stage_channels=(4, 8, 8), **ROWS[row]), seed=0)
    with Tape() as tape:
        loss, _ = clip_loss(model, tiny_clip())
        tape.backward(loss)
    assert [name for name, p in model.parameters().items() if p.grad is None] == []


@pytest.mark.parametrize("row, encodes", [("full", 8), ("+sfm", 8), ("+msff", 5),
                                          ("baseline", 5)])
def test_encoder_passes_per_clip(row, encodes, monkeypatch):
    calls = []
    encode = Encoder.encode

    def counted(self, *args, **kwargs):
        calls.append(1)
        return encode(self, *args, **kwargs)

    monkeypatch.setattr(Encoder, "encode", counted)
    model = SegmentationModel(ModelConfig(stage_channels=SMALL.stage_channels,
                                          **ROWS[row]), seed=0)
    clip_loss(model, tiny_clip())
    # init: the seeded encode, plus the ungated one the spatial read keys on;
    # each of two steps: the current frame, its gated copy with SFM, the memory entry
    assert len(calls) == encodes


# -- evaluation ---------------------------------------------------------------


def trained_model(steps=30):
    return train(dataclasses.replace(SMALL, steps=steps), tiny_sequences()).model


def test_evaluate_scores_all_but_the_first_frame():
    seqs = tiny_sequences()
    report = evaluate(trained_model(steps=0), seqs)
    assert sorted(report.per_sequence) == ["seq0", "seq1"]
    assert report.per_sequence["seq0"].frames == len(seqs[0]) - 1
    for value in (report.dice, report.iou, report.recall, report.mae):
        assert 0.0 <= value <= 1.0


def test_evaluate_rejects_bad_inputs():
    model = trained_model(steps=0)
    seq = tiny_sequences(1)[0]
    with pytest.raises(ValidationError, match="at least one"):
        evaluate(model, [])
    with pytest.raises(ValidationError, match="masks"):
        evaluate(model, [dataclasses.replace(seq, masks=None)])
    with pytest.raises(ValidationError, match=">= 2 frames"):
        evaluate(model, [dataclasses.replace(seq, frames=seq.frames[:1],
                                             masks=seq.masks[:1])])


def test_evaluate_names_the_sequence_and_frame_of_a_bad_prediction(monkeypatch):
    import lesionseg.evaluate as evaluate_module

    def nan_at_frame_2(model, frames, first_gt, padding=None):
        preds = [np.full(first_gt.shape, 0.5) for _ in frames[1:]]
        preds[1][:] = np.nan   # preds[0] is frame 1
        return preds

    monkeypatch.setattr(evaluate_module, "propagate", nan_at_frame_2)
    with pytest.raises(ValidationError, match="sequence seq0, frame 2: .*finite"):
        evaluate(trained_model(steps=0), tiny_sequences(1))


def test_evaluate_names_the_sequence_of_a_nan_prediction():
    model = trained_model(steps=0)
    model.decoder.head.bias.data[:] = np.nan
    with pytest.raises(TrainingDivergedError, match="sequence seq0, frame 1: the model predicted NaN"):
        evaluate(model, tiny_sequences(1))


def test_evaluate_dump_writes_binary_masks(tmp_path):
    from lesionseg.netpbm import read_mask
    from lesionseg.propagation import propagate
    seqs = tiny_sequences(1)
    model = trained_model(steps=0)
    evaluate(model, seqs, dump_dir=tmp_path)
    files = sorted((tmp_path / "seq0").glob("*.pgm"))
    assert [f.name for f in files] == [f"{t:05d}.pgm" for t in range(1, 5)]
    mask = read_mask(files[0])
    assert set(np.unique(mask)) <= {0.0, 1.0}
    assert mask.shape == (16, 16)
    # the dump is exactly the thresholded propagation recomputed offline
    seq = seqs[0]
    offline = propagate(model, seq.frames, seq.masks[0], padding=seq.padding)
    for path, pred in zip(files, offline):
        assert (read_mask(path) == (pred[0] >= 0.5)).all()


def test_trained_beats_untrained_on_its_own_data():
    seqs = tiny_sequences()
    fresh = evaluate(trained_model(steps=0), seqs).dice
    cfg = dataclasses.replace(SMALL, steps=150, learning_rate=0.2)
    fit = evaluate(train(cfg, seqs).model, seqs).dice
    assert fit > max(fresh, 0.5)


# -- ablation ------------------------------------------------------------------


def test_ablate_covers_rows_and_table_marks():
    seqs = tiny_sequences()
    cfg = dataclasses.replace(SMALL, steps=2)
    results = ablate(cfg, seqs, seqs, rows=("baseline", "full"))
    assert [row for row, _ in results] == ["baseline", "full"]
    table = ablation_table(results)
    lines = table.splitlines()
    assert lines[0] == "Row\tSFM\tMSFF\tDice\tIou\tRecall\tMAE"
    assert lines[1].startswith("baseline\t-\t-\t")
    assert lines[2].startswith("full\tx\tx\t")


def test_ablate_is_repeatable():
    seqs = tiny_sequences()
    cfg = dataclasses.replace(SMALL, steps=2)
    tables = [ablation_table(ablate(cfg, seqs, seqs, rows=("full",)))
              for _ in range(2)]
    assert tables[0] == tables[1]


def test_ablate_rejects_unknown_row():
    with pytest.raises(ValidationError, match="unknown ablation row"):
        ablate(SMALL, tiny_sequences(), tiny_sequences(), rows=("turbo",))


def test_ablation_row_catalogue():
    assert ABLATION_ROWS == ("baseline", "+sfm", "+msff", "full")
