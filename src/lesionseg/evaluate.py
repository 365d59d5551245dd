"""Evaluation: propagate each sequence from its first-frame ground truth,
score frames 2..N at the original resolution, and aggregate per-sequence
and macro metrics. Also the one writer of binarized prediction masks, and
the ablation driver that retrains the module toggles with a shared seed.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np

from .config import RunConfig
from .data import VideoSequence, unpad
from .errors import TrainingDivergedError, ValidationError
from .metrics import THRESHOLD, MetricsReport, segmentation_metrics
from .model import SegmentationModel
from .netpbm import write_mask
from .propagation import propagate
from .train import train


def evaluate(model: SegmentationModel, sequences: list[VideoSequence],
             dump_dir=None) -> MetricsReport:
    """Score first-frame-seeded propagation; frame 1 is excluded."""
    if not sequences:
        raise ValidationError("evaluation needs at least one sequence")
    report = MetricsReport()
    for seq in sequences:
        if seq.masks is None:
            raise ValidationError(f"sequence {seq.name} has no ground-truth masks")
        if len(seq) < 2:
            raise ValidationError(f"sequence {seq.name} needs >= 2 frames to evaluate")
        try:
            preds = propagate(model, seq.frames, seq.masks[0], padding=seq.padding)
        except TrainingDivergedError as exc:
            raise TrainingDivergedError(f"sequence {seq.name}, {exc}") from exc
        frame_scores = []
        for t, pred in enumerate(preds, start=1):
            gt = unpad(seq.masks[t].data, seq.padding)
            try:
                frame_scores.append(segmentation_metrics(pred, gt))
            except ValidationError as exc:
                raise ValidationError(f"sequence {seq.name}, frame {t}: {exc}") from exc
        report.add_sequence(seq.name, frame_scores)
        if dump_dir is not None:
            dump_masks(Path(dump_dir) / seq.name, preds)
    return report


def dump_masks(out_dir, preds: list[np.ndarray]) -> None:
    """Write predictions for frames 1.. as masks binarized at THRESHOLD."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for t, pred in enumerate(preds, start=1):
        write_mask(out_dir / f"{t:05d}.pgm", (pred >= THRESHOLD).astype(np.float64))


_ROW_TOGGLES = {
    "baseline": dict(use_sfm=False, use_msff=False),
    "+sfm": dict(use_sfm=True, use_msff=False),
    "+msff": dict(use_sfm=False, use_msff=True),
    "full": dict(use_sfm=True, use_msff=True),
}

ABLATION_ROWS = tuple(_ROW_TOGGLES)


def ablate(config: RunConfig, train_seqs: list[VideoSequence],
           eval_seqs: list[VideoSequence], rows=ABLATION_ROWS,
           log=None) -> list[tuple[str, MetricsReport]]:
    """Train and evaluate each toggle row under the shared run seed."""
    unknown = [row for row in rows if row not in _ROW_TOGGLES]
    if unknown or not rows:
        got = f"unknown ablation row {unknown[0]!r}" if unknown else "no ablation row"
        raise ValidationError(f"{got}; choose from {sorted(_ROW_TOGGLES)}")
    results = []
    for row in rows:
        row_config = dataclasses.replace(config, **_ROW_TOGGLES[row])
        if log is not None:
            log(f"ablation row {row}: training {row_config.steps} steps")
        outcome = train(row_config, train_seqs)
        results.append((row, evaluate(outcome.model, eval_seqs)))
    return results


def ablation_table(results: list[tuple[str, MetricsReport]]) -> str:
    """Rows of toggle marks plus the four macro metrics, tab-separated."""
    lines = ["Row\tSFM\tMSFF\tDice\tIou\tRecall\tMAE"]
    for row, report in results:
        toggles = _ROW_TOGGLES[row]
        marks = ["x" if toggles["use_sfm"] else "-",
                 "x" if toggles["use_msff"] else "-"]
        lines.append("\t".join([row, *marks,
                                f"{report.dice:.4f}", f"{report.iou:.4f}",
                                f"{report.recall:.4f}", f"{report.mae:.4f}"]))
    return "\n".join(lines)
