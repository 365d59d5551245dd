"""The acceptance suite: nine self-contained checks covering gradients,
metric and attention oracles, prior-gating identities, overfit and
generalization training runs, ablation direction, determinism with
persistence, and format fidelity.

Each criterion builds what it needs (synthetic trees go under a shared
work directory), returns pass/fail plus a one-line detail, and is also
what the test suite and the `verify` CLI subcommand execute.
"""

from __future__ import annotations

import dataclasses
import tempfile
import time
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .autodiff import (Tensor, concat, conv2d, grad_check, linear, matmul, mul,
                       pool2d, relu, sigmoid, softmax_rows, tsum, upsample2x)
from .backbone import Encoder, Initializer
from .checkpoint import BLOB, load_checkpoint, save_checkpoint
from .config import RunConfig
from .data import VideoSequence, load_dataset, pad_to_multiple, unpad
from .evaluate import ablate, evaluate
from .fusion import FcHead, WeightedFusion, channel_weights
from .metrics import MetricsReport, ce_loss, segmentation_metrics
from .model import ModelConfig, SegmentationModel
from .netpbm import read_netpbm, write_pgm, write_ppm
from .propagation import init, step
from .spatial import apply_prior, spatial_read
from .synth import SynthConfig, make_dataset, synth_generate
from .temporal import MemoryBank, attention_read, memory_read
from .train import LOSS_WINDOW, smoothed, train

GRAD_TOL = 1e-4
EXACT_TOL = 1e-12

SMALL_MODEL = ModelConfig(stage_channels=(4, 8))

# noiseless sequences for the overfit run; motion and deformation stay on
OVERFIT_SYNTH = SynthConfig(resolution=64, frames=5, blur_sigma=0.0, speckle=0.0,
                            distractors=0)
# moderate degradation for the generalization benchmark
BENCH_SYNTH = SynthConfig(resolution=64, frames=5, blur_sigma=1.0, speckle=0.2,
                          distractors=2, distractor_similarity=0.6)

OVERFIT_CONFIG = RunConfig(steps=200, learning_rate=0.05)
BENCH_CONFIG = RunConfig(steps=500, learning_rate=0.05)
# frozen after the first oracle run of the generalization benchmark
GENERALIZATION_DICE = 0.70
ABLATION_STEPS = 120
ABLATION_SEEDS = (0, 1, 2)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number} {mark}  {self.name}: {self.detail} [{self.seconds:.1f}s]"


class Workspace:
    """Shared fixture directory; each tree is built, and each split loaded, once."""

    def __init__(self, root: Path):
        self.root = Path(root)

    @cached_property
    def overfit_train(self) -> list[VideoSequence]:
        root = self.root / "overfit"
        make_dataset(root, 2, OVERFIT_SYNTH, seed=0, val_count=0)
        return load_dataset(root, split="train")

    @cached_property
    def bench(self) -> tuple[list[VideoSequence], list[VideoSequence]]:
        """The benchmark tree's (train, val) splits."""
        root = self.root / "bench"
        make_dataset(root, 12, BENCH_SYNTH, seed=0, val_count=2)
        return load_dataset(root, split="train"), load_dataset(root, split="val")

    @cached_property
    def bench_reports(self) -> dict[int, MetricsReport]:
        """Held-out reports of one BENCH_CONFIG run at ABLATION_STEPS and at its end."""
        train_seqs, val_seqs = self.bench
        reports = {}
        def keep(result):
            if result.steps in (ABLATION_STEPS, BENCH_CONFIG.steps):
                reports[result.steps] = evaluate(result.model, val_seqs)
        train(BENCH_CONFIG, train_seqs, log=keep)
        return reports


# -- criterion 1: gradient suite ------------------------------------------


def _away_from_kinks(rng, shape):
    x = rng.standard_normal(shape)
    return x + np.sign(x) * 0.1


def _spread_max(x):
    """Widen each channel's max margin so finite differences cannot flip it."""
    flat = x.reshape(x.shape[0], -1)
    flat[np.arange(flat.shape[0]), flat.argmax(axis=1)] += 0.5
    return x


def _op_grad_cases(rng):
    """(name, f, x0) triples; every case reduces to a weighted scalar."""
    b = Tensor(rng.standard_normal((4, 3)))
    soft_w = Tensor(rng.standard_normal((3, 4)))
    lin_w = Tensor(rng.standard_normal((3, 5)))
    lin_b = Tensor(rng.standard_normal(3))
    lin_mix = Tensor(rng.standard_normal(3))
    conv_w = Tensor(rng.standard_normal((2, 3, 3, 3)) * 0.5)
    conv_b = Tensor(rng.standard_normal(2))
    conv_mix = Tensor(rng.standard_normal((2, 4, 4)))
    cat_other = Tensor(rng.standard_normal((2, 4)))
    cat_mix = Tensor(rng.standard_normal((5, 4)))
    up_w = Tensor(rng.standard_normal((2, 8, 8)))
    pool_mix = Tensor(rng.standard_normal(6))
    relu_mix = Tensor(rng.standard_normal((4, 5)))
    sig_mix = Tensor(rng.standard_normal((3, 3)))
    pool_x = _spread_max(rng.standard_normal((3, 4, 4)))
    relu_x = _away_from_kinks(rng, (4, 5))
    yield "matmul", lambda a: tsum(matmul(a, b)), rng.standard_normal((3, 4))
    yield ("softmax_rows", lambda s: tsum(mul(softmax_rows(s), soft_w)),
           rng.standard_normal((3, 4)))
    yield ("conv2d", lambda x: tsum(mul(conv2d(x, conv_w, conv_b), conv_mix)),
           rng.standard_normal((3, 4, 4)))
    yield ("pool2d", lambda x: tsum(mul(concat([pool2d(x, "max"), pool2d(x, "avg")]),
                                        pool_mix)), pool_x)
    yield "relu", lambda x: tsum(mul(relu(x), relu_mix)), relu_x
    yield "sigmoid", lambda x: tsum(mul(sigmoid(x), sig_mix)), rng.standard_normal((3, 3))
    yield ("linear", lambda x: tsum(mul(linear(x, lin_w, lin_b), lin_mix)),
           rng.standard_normal(5))
    yield ("upsample", lambda x: tsum(mul(upsample2x(x, "bilinear"), up_w))
                                 + tsum(upsample2x(x, "nearest")),
           rng.standard_normal((2, 4, 4)))
    yield ("concat", lambda x: tsum(mul(concat([x, cat_other], axis=0), cat_mix)),
           rng.standard_normal((3, 4)))


def _read_grad_cases(rng):
    keys = [Tensor(rng.standard_normal((2, 2, 2))) for _ in range(2)]
    values = [Tensor(rng.standard_normal((4, 2, 2))) for _ in range(2)]
    query = rng.standard_normal((2, 2, 2))
    bank = MemoryBank()
    for k, v in zip(keys, values):
        bank.append(k, v)
    yield "memory_read", lambda q: tsum(memory_read(bank, q)), query
    yield ("memory_read", lambda k: tsum(attention_read(Tensor(query), [k, keys[1]], values)),
           keys[0].data.copy())
    yield ("memory_read", lambda v: tsum(attention_read(Tensor(query), keys, [v, values[1]])),
           values[0].data.copy())
    yield ("spatial_read", lambda q: tsum(spatial_read(q, keys[0], values[0])), query)
    yield ("spatial_read", lambda v: tsum(spatial_read(Tensor(query), keys[0], v)),
           values[0].data.copy())


def _fusion_grad_cases(rng, seed):
    head = FcHead(Initializer(seed), 4)
    wf = WeightedFusion(Initializer(seed + 100), value_channels=4, coarse_channels=2)
    cw_mix = Tensor(rng.standard_normal(4))
    z = Tensor(rng.standard_normal((4, 3, 3)))
    w = Tensor(rng.standard_normal((2, 3, 3)))
    yield ("channel_weights", lambda x: tsum(mul(channel_weights(x, head), cw_mix)),
           _spread_max(rng.standard_normal((4, 3, 3))))
    yield "fuse", lambda y: tsum(wf.fuse(y, z, w)), _spread_max(rng.standard_normal((4, 3, 3)))


def _loss_grad_case(rng):
    gt = (rng.random((1, 4, 4)) < 0.5).astype(np.float64)
    pred2 = Tensor(rng.uniform(0.05, 0.95, (1, 4, 4)))
    yield ("ce_loss", lambda p: ce_loss([(p, Tensor(gt)), (pred2, Tensor(gt))]),
           rng.uniform(0.05, 0.95, (1, 4, 4)))


def _full_step_case(seed):
    tiny = SynthConfig(resolution=16, frames=3, axes=(3.0, 2.0), max_speed=0.5,
                       distractors=0)
    seq = synth_generate(tiny, seed)
    model = SegmentationModel(SMALL_MODEL, seed=seed)
    slots = [
        (model.decoder.head, "weight"),
        (model.encoder.value_head, "bias"),
        (model.fusion.lift, "weight"),
        (model.tap_proj, "weight"),
        (model.fusion.head_temporal, "w2"),
    ]
    owner, attr = slots[seed % len(slots)]
    start = getattr(owner, attr).data.copy()

    def f(x):
        setattr(owner, attr, x)
        state = init(model, seq.frames[0], seq.masks[0])
        _, pred = step(model, state, seq.frames[1])
        return ce_loss([(pred, seq.masks[1])])

    yield "full_step", f, start


def criterion_gradients(ws: Workspace):
    start = time.time()
    worst: dict[str, float] = {}
    for seed in range(5):
        rng = np.random.default_rng(seed)
        cases = [*_op_grad_cases(rng), *_read_grad_cases(rng),
                 *_fusion_grad_cases(rng, seed), *_loss_grad_case(rng),
                 *_full_step_case(seed)]
        for name, f, x0 in cases:
            err = grad_check(f, Tensor(np.asarray(x0), requires_grad=True))
            worst[name] = max(worst.get(name, 0.0), err)
    elapsed = time.time() - start
    top = max(worst, key=worst.get)
    ok = max(worst.values()) < GRAD_TOL and elapsed < 60.0
    return ok, (f"{len(worst)} op families x 5 seeds, worst rel err "
                f"{worst[top]:.2e} ({top}), {elapsed:.1f}s (limit 60s)")


# -- criterion 2: metric oracle -------------------------------------------


def _pixel_count_oracle(pred, gt):
    tp = fp = fn = tn = 0
    err = 0.0
    for p, g in zip(pred.ravel(), gt.ravel()):
        s = 1 if p >= 0.5 else 0
        t = 1 if g >= 0.5 else 0
        tp += s and t
        fp += s and not t
        fn += (not s) and t
        tn += (not s) and (not t)
        err += abs(p - g)
    dice = 1.0 if tp + fp + fn == 0 else 2.0 * tp / (2 * tp + fp + fn)
    iou = 1.0 if tp + fp + fn == 0 else tp / (tp + fp + fn)
    recall = 1.0 if tp + fn == 0 else tp / (tp + fn)
    return dice, iou, recall, err / pred.size


def criterion_metrics(ws: Workspace):
    rng = np.random.default_rng(2024)
    worst = 0.0
    worst_identity = 0.0
    for _ in range(100):
        pred = rng.random((16, 16))
        gt = (rng.random((16, 16)) < rng.uniform(0.0, 0.8)).astype(np.float64)
        ours = segmentation_metrics(pred, gt)
        ref = _pixel_count_oracle(pred, gt)
        worst = max(worst, max(abs(a - b) for a, b in zip(ours, ref)))
        dice, iou = ours[0], ours[1]
        worst_identity = max(worst_identity, abs(dice - 2.0 * iou / (1.0 + iou)))
    ok = worst < EXACT_TOL and worst_identity < EXACT_TOL
    return ok, (f"100 pairs, max oracle gap {worst:.2e}, "
                f"max dice-iou identity gap {worst_identity:.2e}")


# -- criterion 3: attention invariants ------------------------------------


def criterion_attention(ws: Workspace):
    rng = np.random.default_rng(7)
    worst_row = worst_convex = worst_perm = 0.0
    for _ in range(50):
        t = int(rng.integers(1, 5))
        hw = int(rng.integers(2, 9))
        keys = [Tensor(rng.standard_normal((2, hw, hw))) for _ in range(t)]
        values = [Tensor(rng.standard_normal((4, hw, hw))) for _ in range(t)]
        query = Tensor(rng.standard_normal((2, hw, hw)))
        y, attn = attention_read(query, keys, values, return_attention=True)
        worst_row = max(worst_row, float(np.abs(attn.data.sum(axis=1) - 1.0).max()))
        flat = np.concatenate([v.data.reshape(4, -1) for v in values], axis=1)
        lo = flat.min(axis=1)[:, None, None]
        hi = flat.max(axis=1)[:, None, None]
        worst_convex = max(worst_convex,
                           float(np.maximum(lo - y.data, y.data - hi).max()))
        perm = rng.permutation(t)
        y2 = attention_read(query, [keys[i] for i in perm], [values[i] for i in perm])
        worst_perm = max(worst_perm, float(np.abs(y.data - y2.data).max()))
    ok = max(worst_row, worst_convex, worst_perm) < EXACT_TOL
    return ok, (f"50 banks: row-sum gap {worst_row:.2e}, convexity gap "
                f"{max(worst_convex, 0.0):.2e}, permutation gap {worst_perm:.2e}")


# -- criterion 4: prior-gating identities ----------------------------------


def criterion_prior_gating(ws: Workspace):
    rng = np.random.default_rng(11)
    frame = Tensor(rng.random((1, 16, 16)))
    ones_ok = (apply_prior(Tensor(np.ones((1, 16, 16))), frame).data
               == frame.data).all()
    enc = Encoder(SMALL_MODEL, Initializer(0))
    gated = apply_prior(Tensor(np.zeros((1, 16, 16))), frame)
    v_prior = enc.encode(gated).value
    zeros_ok = not v_prior.data.any()
    ok = bool(ones_ok and zeros_ok)
    return ok, (f"ones-mask bitwise identity: {bool(ones_ok)}, "
                f"zeros-mask value sum {float(np.abs(v_prior.data).sum()):.1f}")


# -- criteria 5-7: training experiments ------------------------------------


def criterion_overfit(ws: Workspace):
    start = time.time()
    seqs = ws.overfit_train
    result = train(OVERFIT_CONFIG, seqs)
    initial = float(np.mean(result.losses[:LOSS_WINDOW]))
    final = smoothed(result.losses)
    report = evaluate(result.model, seqs)
    elapsed = time.time() - start
    ok = report.dice >= 0.90 and final < 0.2 * initial and elapsed < 180.0
    return ok, (f"train dice {report.dice:.3f} (need >= 0.90), smoothed loss "
                f"{final:.4f} vs initial {initial:.4f} (need < 20%), "
                f"{elapsed:.0f}s (limit 180s)")


def criterion_generalization(ws: Workspace):
    report = ws.bench_reports[BENCH_CONFIG.steps]
    ok = report.dice >= GENERALIZATION_DICE
    return ok, (f"10 train / 2 held-out sequences, test dice {report.dice:.3f} "
                f"(need >= {GENERALIZATION_DICE:.2f})")


def criterion_ablation(ws: Workspace):
    train_seqs, val_seqs = ws.bench
    scores = {"full": [], "baseline": []}
    for seed in ABLATION_SEEDS:
        shared = dataclasses.replace(BENCH_CONFIG, steps=ABLATION_STEPS, seed=seed)
        rows = tuple(scores)
        if seed == BENCH_CONFIG.seed:   # its full row is the start of criterion 6's run
            scores["full"].append(ws.bench_reports[ABLATION_STEPS].dice)
            rows = ("baseline",)
        for row, report in ablate(shared, train_seqs, val_seqs, rows=rows):
            scores[row].append(report.dice)
    full = float(np.mean(scores["full"]))
    base = float(np.mean(scores["baseline"]))
    ok = full >= base
    return ok, (f"{len(ABLATION_SEEDS)} seeds x {ABLATION_STEPS} steps: full model "
                f"dice {full:.3f} vs temporal-only baseline {base:.3f}")


# -- criterion 8: determinism and persistence -------------------------------


def criterion_determinism(ws: Workspace):
    seqs = ws.overfit_train
    cfg = dataclasses.replace(OVERFIT_CONFIG, steps=25)
    tables = []
    blobs = []
    for run in range(2):
        result = train(cfg, seqs)
        ckpt = ws.root / f"det{run}"
        save_checkpoint(ckpt, result.model, cfg, step=result.steps, rng=result.rng)
        blobs.append((ckpt / BLOB).read_bytes())
        # saving quantizes in place, so this table reflects the stored weights
        tables.append(evaluate(result.model, seqs).to_detail_table())
    same_blob = blobs[0] == blobs[1]
    same_table = tables[0] == tables[1]
    reloaded, _, _, _ = load_checkpoint(ws.root / "det1")
    round_trip = evaluate(reloaded, seqs).to_detail_table() == tables[1]
    ok = bool(same_blob and same_table and round_trip)
    return ok, (f"repeat-run checkpoints identical: {same_blob}, metric tables "
                f"identical: {same_table}, save/load metrics identical: {round_trip}")


# -- criterion 9: format fidelity -------------------------------------------


def criterion_formats(ws: Workspace):
    rng = np.random.default_rng(17)
    scratch = ws.root / "formats"
    scratch.mkdir(parents=True, exist_ok=True)
    byte_exact = True
    for idx in range(5):
        gray = rng.integers(0, 256, (11, 7)).astype(np.float64) / 255.0
        p5 = scratch / f"g{idx}.pgm"
        write_pgm(p5, gray)
        first = p5.read_bytes()
        write_pgm(p5, read_netpbm(p5))
        byte_exact &= p5.read_bytes() == first
        color = rng.integers(0, 256, (5, 9, 3)).astype(np.float64) / 255.0
        p6 = scratch / f"c{idx}.ppm"
        write_ppm(p6, color)
        first = p6.read_bytes()
        write_ppm(p6, read_netpbm(p6))
        byte_exact &= p6.read_bytes() == first
    tree = scratch / "tree"
    make_dataset(tree, 3, SynthConfig(resolution=32, frames=3, axes=(5.0, 4.0)),
                 seed=5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        seqs = load_dataset(tree)
    no_warnings = len(caught) == 0 and len(seqs) == 3
    pad_exact = True
    for h, w in ((100, 100), (37, 61), (64, 64)):
        img = rng.random((1, h, w))
        padded, pad = pad_to_multiple(img, 8)
        pad_exact &= padded.shape[1] % 8 == 0 and padded.shape[2] % 8 == 0
        pad_exact &= (unpad(padded, pad) == img).all()
    ok = bool(byte_exact and no_warnings and pad_exact)
    return ok, (f"netpbm byte-exact: {byte_exact}, tree reload warnings: "
                f"{len(caught)}, pad/unpad exact: {pad_exact}")


CRITERIA = (
    (1, "gradient suite", criterion_gradients),
    (2, "metric oracle", criterion_metrics),
    (3, "attention invariants", criterion_attention),
    (4, "prior-gating identities", criterion_prior_gating),
    (5, "overfit experiment", criterion_overfit),
    (6, "generalization smoke test", criterion_generalization),
    (7, "ablation direction", criterion_ablation),
    (8, "determinism and persistence", criterion_determinism),
    (9, "format fidelity", criterion_formats),
)


def run_criterion(number: int, ws: Workspace) -> CriterionResult:
    """Run and time one acceptance criterion."""
    _, name, fn = next(c for c in CRITERIA if c[0] == number)
    t0 = time.time()
    passed, detail = fn(ws)
    return CriterionResult(number, name, bool(passed), detail, time.time() - t0)


def run_all(workdir=None, numbers=None) -> list[CriterionResult]:
    """Run the acceptance criteria, printing one line per criterion."""
    if workdir is None:
        tmp = tempfile.TemporaryDirectory(prefix="lesionseg-verify-")
        root = Path(tmp.name)
    else:
        tmp = None
        root = Path(workdir)
        root.mkdir(parents=True, exist_ok=True)
    ws = Workspace(root)
    results = []
    try:
        for number, _, _ in CRITERIA:
            if numbers is not None and number not in numbers:
                continue
            result = run_criterion(number, ws)
            results.append(result)
            print(result.line())
        if results:
            total = sum(r.seconds for r in results)
            failed = [r.number for r in results if not r.passed]
            verdict = "all passed" if not failed else f"failed: {failed}"
            print(f"acceptance: {len(results) - len(failed)}/{len(results)} "
                f"{verdict} [{total:.0f}s total]")
    finally:
        if tmp is not None:
            tmp.cleanup()
    return results
