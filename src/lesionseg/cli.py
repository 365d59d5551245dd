"""Command-line harness: train, eval, ablate, predict, synth, verify.

Flag precedence is built-in defaults < --config file < explicit flags.
Every command that produces artifacts echoes its effective config into
the output directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import __version__
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, apply_overrides, load_config, save_config
from .data import _read_sequence, load_dataset, sequence_names
from .errors import GenerationError, TrainingDivergedError, ValidationError
from .evaluate import ABLATION_ROWS, ablate, ablation_table, dump_masks, evaluate
from .propagation import propagate
from .synth import SynthConfig, make_dataset
from .train import smoothed, train
from .verify import CRITERIA, run_all


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="config file (flat key = value with sections)")
    parser.add_argument("--data", dest="data_root", help="dataset root directory")
    parser.add_argument("--seed", type=int, default=None, help="global seed")
    parser.add_argument("--steps", type=int, default=None, help="SGD updates to run")
    parser.add_argument("--lr", dest="learning_rate", type=float, default=None)
    parser.add_argument("--momentum", type=float, default=None)
    parser.add_argument("--encoder-tap", dest="encoder_tap", type=int, default=None)
    parser.add_argument("--memory-capacity", dest="memory_capacity", type=int,
                        default=None, help="max remembered frames (0 = unlimited)")
    for flag, dest, meaning in (
            ("--no-sfm", "use_sfm", "disable the prior-gated spatial branch"),
            ("--no-msff", "use_msff", "merge branches by concat + 1x1 conv")):
        parser.add_argument(flag, dest=dest, action="store_const", const=False,
                            default=None, help=meaning)


def _effective_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    overrides = {f.name: getattr(args, f.name) for f in dataclasses.fields(RunConfig)
                 if hasattr(args, f.name)}
    return apply_overrides(cfg, overrides)


def _data_root(args, cfg: RunConfig, source: str) -> str:
    """--data if given, else the config's data_root; neither is an error."""
    root = args.data_root or cfg.data_root
    if not root:
        raise ValidationError(f"{args.command} needs --data (or data_root in {source})")
    return root


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_train(args) -> int:
    cfg = _effective_config(args)
    root = _data_root(args, cfg, "the config file")
    sequences = load_dataset(root, split=args.split, total_stride=cfg.total_stride)
    def progress(result):
        if result.steps % cfg.log_every == 0:
            print(f"step {result.steps}/{cfg.steps}  loss {result.losses[-1]:.5f}  "
                  f"smoothed {smoothed(result.losses):.5f}")
    result = train(cfg, sequences, log=progress)
    out = _out_dir(args)
    save_config(cfg, out / "config.ini")
    save_checkpoint(out / "checkpoint", result.model, cfg,
                    step=result.steps, rng=result.rng)
    (out / "losses.txt").write_text(
        "".join(f"{v:.17g}\n" for v in result.losses))
    if result.losses:
        final = smoothed(result.losses)
        print(f"done: {result.steps} steps, final smoothed loss {final:.5f}")
    print(f"checkpoint written to {out / 'checkpoint'}")
    return 0


def cmd_eval(args) -> int:
    model, cfg, step, _ = load_checkpoint(args.checkpoint)
    root = _data_root(args, cfg, "the checkpoint config")
    sequences = load_dataset(root, split=args.split, total_stride=cfg.total_stride)
    out = _out_dir(args)
    dump = (out / "predictions") if args.dump else None
    report = evaluate(model, sequences, dump_dir=dump)
    save_config(cfg, out / "config.ini")
    label = f"checkpoint@{step}"
    (out / "metrics.tsv").write_text(report.to_table(label))
    (out / "details.tsv").write_text(report.to_detail_table())
    print(report.to_table(label), end="")
    return 0


def cmd_predict(args) -> int:
    model, cfg, _, _ = load_checkpoint(args.checkpoint)
    root = _data_root(args, cfg, "the checkpoint config")
    if args.sequence not in sequence_names(root):
        raise ValidationError(f"sequence {args.sequence!r} not found under {root}")
    frames, masks, padding = _read_sequence(root, args.sequence, cfg.total_stride,
                                            every_mask=False)
    if masks is None:
        raise ValidationError(f"sequence {args.sequence} has no first-frame annotation")
    preds = propagate(model, frames, masks[0], padding=padding)
    out = _out_dir(args)
    save_config(cfg, out / "config.ini")
    mask_dir = out / args.sequence
    dump_masks(mask_dir, preds)
    print(f"wrote {len(preds)} masks to {mask_dir}")
    return 0


def cmd_ablate(args) -> int:
    cfg = _effective_config(args)
    root = _data_root(args, cfg, "the config file")
    rows = tuple(r.strip() for r in args.rows.split(",") if r.strip())
    train_seqs = load_dataset(root, split="train", total_stride=cfg.total_stride)
    eval_seqs = load_dataset(root, split=args.split, total_stride=cfg.total_stride)
    results = ablate(cfg, train_seqs, eval_seqs, rows=rows, log=print)
    table = ablation_table(results)
    out = _out_dir(args)
    save_config(cfg, out / "config.ini")
    (out / "ablation.tsv").write_text(table + "\n")
    print(table)
    return 0


# synth flags that set a SynthConfig field of the same dest
_SYNTH_FLAGS = (("--resolution", "resolution"), ("--frames", "frames"),
                ("--blur", "blur_sigma"), ("--speckle", "speckle"),
                ("--distractors", "distractors"), ("--deformation", "deformation"),
                ("--max-speed", "max_speed"))


def cmd_synth(args) -> int:
    synth_cfg = SynthConfig(**{dest: getattr(args, dest) for _, dest in _SYNTH_FLAGS})
    train_names, val_names = make_dataset(
        args.out, args.count, synth_cfg, seed=args.seed, val_count=args.val_count)
    print(f"wrote {args.count} sequences under {args.out} "
          f"({len(train_names)} train / {len(val_names)} val)")
    return 0


def cmd_verify(args) -> int:
    numbers = None
    if args.only:
        valid = [str(number) for number, _, _ in CRITERIA]
        words = [w.strip() for w in args.only.split(",")]
        if not set(words) <= set(valid):
            raise ValidationError(f"--only takes comma-separated criterion numbers "
                                  f"{valid[0]}-{valid[-1]}, got {args.only!r}")
        numbers = sorted(map(int, words))
    results = run_all(workdir=args.workdir, numbers=numbers)
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lesionseg",
        description="Video lesion segmentation with memory, prior-mask, "
                    "and multi-scale feature fusion.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model on 3-frame clips")
    _add_config_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--split", default="train", help="ImageSets split to train on")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint by propagation")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", dest="data_root", default=None)
    p.add_argument("--split", default="val")
    p.add_argument("--out", required=True)
    p.add_argument("--dump", action="store_true",
                   help="write binarized predictions as a mask tree")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="propagate one sequence and write masks")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", dest="data_root", default=None)
    p.add_argument("--sequence", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("ablate", help="train/evaluate module-toggle rows")
    _add_config_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--split", default="val")
    p.add_argument("--rows", default=",".join(ABLATION_ROWS),
                   help="comma-separated subset of " + ", ".join(ABLATION_ROWS))
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("synth", help="generate a synthetic dataset tree")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    synth_defaults = SynthConfig()
    for flag, dest in _SYNTH_FLAGS:
        default = getattr(synth_defaults, dest)
        p.add_argument(flag, dest=dest, type=type(default), default=default)
    p.add_argument("--val-count", dest="val_count", type=int, default=None,
                   help="validation set size (default: about a tenth)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--workdir", default=None,
                   help="where to keep generated fixtures (default: temp dir)")
    p.add_argument("--only", default=None,
                   help="comma-separated criterion numbers to run")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, GenerationError, TrainingDivergedError,
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
