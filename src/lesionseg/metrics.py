"""Training loss and segmentation quality metrics.

The loss is full binary cross-entropy between predicted probability maps and
binary ground truth, summed over the supervised frames of a clip.  Evaluation
reports Dice, IoU, Recall on masks binarized at ``THRESHOLD``, and MAE on
the continuous probability map.  ``THRESHOLD`` is also where written
prediction masks are binarized.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, clamp, log, tmean
from .errors import ShapeError, ValidationError, is_binary, is_probability

CLAMP_EPS = 1e-7
THRESHOLD = 0.5   # a pixel with probability >= THRESHOLD is lesion


def ce_loss(pairs: list[tuple[Tensor, Tensor]]) -> Tensor:
    """Total cross-entropy over (pred, gt) pairs.

    Each term is the mean over pixels of
    ``-(g*log(p) + (1-g)*log(1-p))`` with predictions clamped to
    ``[eps, 1-eps]``; the total is the sum over pairs.
    """
    if not pairs:
        raise ValidationError("ce_loss needs at least one (pred, gt) pair")
    total = None
    for pred, gt in pairs:
        if pred.shape != gt.shape:
            raise ShapeError(f"pred/gt shape mismatch: {pred.shape} vs {gt.shape}")
        if not is_binary(gt.data):
            raise ValidationError("ground truth must be strictly binary")
        p = clamp(pred, CLAMP_EPS, 1.0 - CLAMP_EPS)
        term = tmean(-(gt * log(p) + (1.0 - gt) * log(1.0 - p)))
        total = term if total is None else total + term
    return total


def segmentation_metrics(pred_prob: np.ndarray,
                         gt: np.ndarray) -> tuple[float, float, float, float]:
    """(dice, iou, recall, mae) for one predicted frame.

    Dice/IoU/Recall are computed on the prediction binarized at
    ``THRESHOLD``; MAE is the mean absolute per-pixel error against the
    continuous map.  Empty-set conventions: both masks empty -> dice = iou =
    recall = 1; GT empty but prediction not -> recall = 1, dice = iou = 0.
    A prediction that is not finite or leaves [0, 1] is rejected: it would
    score as an empty mask, or give an MAE above 1.
    """
    pred_prob = np.asarray(pred_prob, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred_prob.shape != gt.shape:
        raise ShapeError(f"pred/gt shape mismatch: {pred_prob.shape} vs {gt.shape}")
    if not is_binary(gt):
        raise ValidationError("ground truth must be strictly binary")
    if not is_probability(pred_prob):
        raise ValidationError("prediction must hold finite probabilities in [0, 1]")

    sr = pred_prob >= THRESHOLD
    gtb = gt >= 0.5
    inter = float(np.count_nonzero(sr & gtb))
    n_sr = float(np.count_nonzero(sr))
    n_gt = float(np.count_nonzero(gtb))

    if n_sr + n_gt == 0.0:
        dice = iou = 1.0
    else:
        dice = 2.0 * inter / (n_sr + n_gt)
        union = n_sr + n_gt - inter
        iou = inter / union
    recall = 1.0 if n_gt == 0.0 else inter / n_gt

    mae = float(np.mean(np.abs(pred_prob - gt)))
    return dice, iou, recall, mae


@dataclass
class SequenceMetrics:
    dice: float
    iou: float
    recall: float
    mae: float
    frames: int


@dataclass
class MetricsReport:
    """Per-sequence metrics plus their macro average."""

    per_sequence: dict[str, SequenceMetrics] = field(default_factory=dict)

    def add_sequence(self, name: str, frame_metrics: list[tuple[float, float, float, float]]) -> None:
        arr = np.asarray(frame_metrics, dtype=np.float64)
        self.per_sequence[name] = SequenceMetrics(
            dice=float(arr[:, 0].mean()),
            iou=float(arr[:, 1].mean()),
            recall=float(arr[:, 2].mean()),
            mae=float(arr[:, 3].mean()),
            frames=len(frame_metrics),
        )

    def _macro(self, attr: str) -> float:
        values = [getattr(m, attr) for m in self.per_sequence.values()]
        return float(np.mean(values)) if values else float("nan")

    @property
    def dice(self) -> float:
        return self._macro("dice")

    @property
    def iou(self) -> float:
        return self._macro("iou")

    @property
    def recall(self) -> float:
        return self._macro("recall")

    @property
    def mae(self) -> float:
        return self._macro("mae")

    @property
    def frames(self) -> int:
        return sum(m.frames for m in self.per_sequence.values())

    def summary_row(self, method: str) -> str:
        return f"{method}\t{self.dice:.4f}\t{self.iou:.4f}\t{self.recall:.4f}\t{self.mae:.4f}"

    def to_table(self, method: str) -> str:
        """Tab-separated summary table (Method, Dice, Iou, Recall, MAE)."""
        return "Method\tDice\tIou\tRecall\tMAE\n" + self.summary_row(method) + "\n"

    def to_detail_table(self) -> str:
        lines = ["Sequence\tFrames\tDice\tIou\tRecall\tMAE"]
        for name in sorted(self.per_sequence):
            m = self.per_sequence[name]
            lines.append(f"{name}\t{m.frames}\t{m.dice:.17g}\t{m.iou:.17g}"
                         f"\t{m.recall:.17g}\t{m.mae:.17g}")
        return "\n".join(lines) + "\n"
