"""The benchmark's workloads: set-up, the measured unit of work, and the
checks on each unit's outputs.

* ``train64``: ``train()`` for a fixed number of SGD steps on a 64x64
  tree, then ``save_checkpoint``. The unit is that chunk; the item is one
  step.
* ``eval64``: ``load_checkpoint``, ``load_dataset`` and
  ``evaluate(dump_dir=...)`` over 24 held-out 64x64 sequences of 5 to 15
  frames (216 scored frames), as ``lesionseg eval --dump`` does. The unit
  is that pass; the item is one sequence, and throughput counts scored
  frames.
* ``long128``: ``propagation.init`` and then ``step`` over one
  128x128x120 sequence with unbounded memory. The unit is the pass; the
  item is one step.

All inputs come from ``lesionseg.synth`` under the workload seed, so the
program only ever sees generated trees. README.md says why each workload
was chosen.
"""

from __future__ import annotations

import dataclasses
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from lesionseg import checkpoint, data, evaluate, netpbm, propagation, synth, train
from lesionseg.autodiff import Tensor
from lesionseg.config import RunConfig
from lesionseg.metrics import ce_loss
from lesionseg.model import ModelConfig, SegmentationModel
from lesionseg.verify import BENCH_SYNTH

THRESHOLD = 0.5        # evaluate()'s default binarization threshold
EDGE_ITEMS = 10        # items per unit behind latency "early" and "late"
# The 2-core host this was tuned on switches between a fast and a slow state
# every second or so, a factor of up to 2 on a 50 ms set-up. So one
# set-up sample is the mean over set-ups repeated for SETUP_BATCH_SECONDS,
# and a set-up cheaper than that takes one more sample after every unit,
# which spreads its samples over the whole run.
SETUP_SAMPLES = 3      # taken before the first unit
SETUP_BATCH_SECONDS = 0.5


@dataclass(frozen=True)
class Scale:
    """Input sizes; FULL is the benchmark, TINY the smoke tests."""

    train_synth: synth.SynthConfig = BENCH_SYNTH
    train_sequences: int = 10
    train_steps: int = 48
    eval_synth: synth.SynthConfig = dataclasses.replace(BENCH_SYNTH, frames=10)
    # frames per held-out sequence: 5 to 15, twice each in a mixed order,
    # and two of 10, so 240 frames in all as with 24 of 10. Equal-length
    # sequences all cost the same, and their per-sequence latencies then
    # take one value per speed the host happens to run at; the median of
    # such a sample jumps between those values from run to run.
    eval_lengths: tuple[int, ...] = tuple(5 + (7 * j) % 11 for j in range(22)) + (10, 10)
    long_synth: synth.SynthConfig = synth.SynthConfig(
        resolution=128, frames=120, axes=(14.0, 10.0), max_speed=0.25,
        blur_sigma=1.0, speckle=0.2, distractors=2, distractor_similarity=0.6)
    # eval64's macro Dice was 0.77-0.92 over seeds 11-15 and 21-40; below
    # this floor the trained model no longer segments at all
    dice_floor: float = 0.5


FULL = Scale()
_TINY_SYNTH = synth.SynthConfig(resolution=32, frames=3, axes=(5.0, 4.0), max_speed=0.5)
TINY = Scale(train_synth=_TINY_SYNTH, train_sequences=2, train_steps=2,
             eval_synth=_TINY_SYNTH, eval_lengths=(3, 4), dice_floor=0.0,
             long_synth=dataclasses.replace(_TINY_SYNTH, frames=6, max_speed=0.3))


def train_config(steps: int) -> RunConfig:
    """The one training schedule: train64's chunk and eval64's checkpoint.

    48 steps at this rate and momentum give eval64 a held-out Dice of
    0.77-0.92; 30 steps still predict empty masks.
    """
    return RunConfig(steps=steps, learning_rate=0.02, momentum=0.9, log_every=1, seed=0)


@dataclass
class Unit:
    """One measured unit of work and what its checks found."""

    latencies_ms: list[float]     # one per item, in order
    busy_s: float                 # wall time of the program calls, checks excluded
    items: int                    # throughput numerator
    loss: float                   # mean cross-entropy of the unit's predictions
    failures: list[str] = field(default_factory=list)
    dice: float | None = None     # eval64's macro held-out Dice


def mean_ce(prob: np.ndarray, gt: np.ndarray) -> float:
    return ce_loss([(Tensor(prob), Tensor(gt))]).item()


def probability_failure(prob: np.ndarray, what: str) -> str | None:
    if not np.isfinite(prob).all():
        return f"{what}: non-finite probability"
    if prob.min() < 0.0 or prob.max() > 1.0:
        return f"{what}: probability outside [0, 1]"
    return None


class Workload:
    """Set-up once per repetition, then units measured one after another."""

    name = ""
    item = ""          # what one latency sample times
    rate_item = ""     # what the throughput counts
    loss_label = ""

    def __init__(self, seed: int, workdir: Path, scale: Scale = FULL):
        self.seed = seed
        self.workdir = Path(workdir)
        self.scale = scale

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, tracer) -> tuple[Unit, object]:
        """One unit of program calls; the outputs are what check() needs."""
        raise NotImplementedError

    def check(self, unit: Unit, outputs) -> None:
        """Append to unit.failures what is wrong with the outputs.

        Runs with the tracer uninstalled, so its program calls add no spans.
        """
        raise NotImplementedError

    def _fresh_dir(self, name: str) -> Path:
        path = self.workdir / name
        shutil.rmtree(path, ignore_errors=True)
        return path


class Train64(Workload):
    name = "train64"
    item = "step"
    rate_item = "step"
    loss_label = "loss_final (mean training cross-entropy of the last 10 steps)"

    def __init__(self, seed: int, workdir: Path, scale: Scale = FULL):
        super().__init__(seed, workdir, scale)
        self.first_losses: list[float] | None = None

    def setup(self) -> None:
        root = self._fresh_dir("tree")
        synth.make_dataset(root, self.scale.train_sequences, self.scale.train_synth,
                           seed=self.seed, val_count=0)
        self.sequences = data.load_dataset(root, split="train")
        self.config = train_config(self.scale.train_steps)
        self.ckpt = self.workdir / "checkpoint"

    def run(self, tracer) -> tuple[Unit, object]:
        stamps: list[float] = []
        t0 = perf_counter()
        result = train.train(self.config, self.sequences, log=lambda _: stamps.append(perf_counter()))
        checkpoint.save_checkpoint(self.ckpt, result.model, self.config,
                                   step=result.steps, rng=result.rng)
        busy = perf_counter() - t0
        edges = [t0] + stamps
        latencies = [1000.0 * (b - a) for a, b in zip(edges, edges[1:])]
        loss = float(np.mean(result.losses[-EDGE_ITEMS:]))
        return Unit(latencies, busy, result.steps, loss), (result, len(stamps))

    def check(self, unit: Unit, outputs) -> None:
        result, logged = outputs
        losses = result.losses
        failures = unit.failures
        if result.steps != self.config.steps or logged != self.config.steps:
            failures.append(f"{result.steps} steps, {logged} logged, "
                            f"expected {self.config.steps}")
        if not np.isfinite(losses).all():
            failures.append("non-finite training loss")
        elif (len(losses) >= 2 * EDGE_ITEMS
              and not np.mean(losses[-EDGE_ITEMS:]) < np.mean(losses[:EDGE_ITEMS])):
            failures.append("the last steps' mean loss is not below the first steps'")
        if self.first_losses is None:
            self.first_losses = list(losses)
        elif losses != self.first_losses:
            failures.append("losses differ from the first chunk's (same config and seed)")
        reloaded, _, step, _ = checkpoint.load_checkpoint(self.ckpt)
        live = result.model.parameters()
        for name, p in reloaded.parameters().items():
            if p.data.tobytes() != live[name].data.tobytes():
                failures.append(f"reloaded parameter {name} differs from the saved model")
                break
        if step != result.steps:
            failures.append(f"checkpoint step {step} != {result.steps}")
        seq = self.sequences[0]
        for t, prob in enumerate(propagation.propagate(reloaded, seq.frames, seq.masks[0]), 1):
            failure = probability_failure(prob, f"{seq.name} frame {t}")
            if failure:
                failures.append(failure)


class Eval64(Workload):
    name = "eval64"
    item = "sequence"
    rate_item = "frame"
    loss_label = "loss (mean cross-entropy of the held-out predictions)"

    def setup(self) -> None:
        root = self._fresh_dir("tree")
        scale = self.scale
        train_names, _ = synth.make_dataset(root, scale.train_sequences, scale.eval_synth,
                                            seed=self.seed, val_count=0)
        val_names = []
        for j, frames in enumerate(scale.eval_lengths):
            seq = synth.synth_generate(dataclasses.replace(scale.eval_synth, frames=frames),
                                       [self.seed, scale.train_sequences + j])
            val_names.append(f"heldout{j:03d}")
            data.write_sequence(root, val_names[-1], [f.data for f in seq.frames],
                                [m.data for m in seq.masks])
        data.write_split_files(root, train_names, val_names)
        config = dataclasses.replace(train_config(self.scale.train_steps), data_root=str(root))
        result = train.train(config, data.load_dataset(root, split="train"))
        self.ckpt = self._fresh_dir("checkpoint")
        checkpoint.save_checkpoint(self.ckpt, result.model, config,
                                   step=result.steps, rng=result.rng)
        self.dump = self.workdir / "predictions"

    def run(self, tracer) -> tuple[Unit, object]:
        shutil.rmtree(self.dump, ignore_errors=True)
        captured: list[tuple[float, list[np.ndarray]]] = []
        real = evaluate.propagate

        def capture(*args, **kwargs):
            captured.append((perf_counter(), None))
            preds = real(*args, **kwargs)
            captured[-1] = (captured[-1][0], preds)
            return preds

        evaluate.propagate = capture
        try:
            t0 = perf_counter()
            model, cfg, _, _ = checkpoint.load_checkpoint(self.ckpt)
            sequences = data.load_dataset(cfg.data_root, split="val",
                                          total_stride=cfg.total_stride)
            report = evaluate.evaluate(model, sequences, dump_dir=self.dump)
            t1 = perf_counter()
        finally:
            evaluate.propagate = real
        edges = [c[0] for c in captured] + [t1]
        latencies = [1000.0 * (b - a) for a, b in zip(edges, edges[1:])]
        unit = Unit(latencies, t1 - t0, report.frames, float("nan"), dice=report.dice)
        return unit, (sequences, [c[1] for c in captured], report)

    def check(self, unit: Unit, outputs) -> None:
        sequences, predictions, report = outputs
        failures = unit.failures
        if not report.dice >= self.scale.dice_floor:
            failures.append(f"held-out macro Dice {report.dice:.4f} < {self.scale.dice_floor}")
        expected = sum(len(s) - 1 for s in sequences)
        if len(predictions) != len(sequences) or report.frames != expected:
            failures.append(f"{report.frames} frames scored in {len(predictions)} "
                            f"sequences, expected {expected} in {len(sequences)}")
        for m in report.per_sequence.values():
            values = (m.dice, m.iou, m.recall, m.mae)
            if not all(np.isfinite(v) and 0.0 <= v <= 1.0 for v in values):
                failures.append(f"metric outside [0, 1]: {values}")
        losses = []
        for seq, preds in zip(sequences, predictions):
            for t, prob in enumerate(preds, 1):
                what = f"{seq.name} frame {t}"
                failure = probability_failure(prob, what)
                if failure:
                    failures.append(failure)
                    continue
                losses.append(mean_ce(prob, data.unpad(seq.masks[t].data, seq.padding)))
                dumped = netpbm.read_mask(self.dump / seq.name / f"{t:05d}.pgm")
                if not np.array_equal(dumped, (prob >= THRESHOLD).astype(np.float64)[0]):
                    failures.append(f"{what}: dumped mask differs from the prediction")
        if losses:
            unit.loss = float(np.mean(losses))


class Long128(Workload):
    name = "long128"
    item = "frame"
    rate_item = "frame"
    loss_label = "loss (mean cross-entropy of the untrained model's predictions)"

    def setup(self) -> None:
        self.sequence = synth.synth_generate(self.scale.long_synth, self.seed)
        self.model = SegmentationModel(ModelConfig(), seed=0)

    def run(self, tracer) -> tuple[Unit, object]:
        frames, masks = self.sequence.frames, self.sequence.masks
        failures = []
        if tracer is not None:
            tracer.run_id = 0
        t0 = perf_counter()
        state = propagation.init(self.model, frames[0], masks[0])
        busy = perf_counter() - t0
        latencies, losses = [], []
        for t in range(1, len(frames)):
            if tracer is not None:
                tracer.run_id = t
            t0 = perf_counter()
            state, pred = propagation.step(self.model, state, frames[t])
            elapsed = perf_counter() - t0
            busy += elapsed
            latencies.append(1000.0 * elapsed)
            if not len(state.memory) == state.frame_index == t + 1:
                failures.append(f"frame {t}: memory holds {len(state.memory)} entries "
                                f"after {t + 1} frames")
            failure = probability_failure(pred.data, f"frame {t}")
            if failure:
                failures.append(failure)
            else:
                losses.append(mean_ce(pred.data, masks[t].data))
        loss = float(np.mean(losses)) if losses else float("nan")
        return Unit(latencies, busy, len(frames) - 1, loss, failures), None

    def check(self, unit: Unit, outputs) -> None:
        """Every step was checked as it ran; no program call may run here."""


WORKLOADS = {w.name: w for w in (Train64, Eval64, Long128)}


@dataclass
class Measurement:
    setup_s: list[float]
    units: list[Unit]                  # untraced: the end-to-end metrics
    errors: list[str]
    traced: list[Unit] = field(default_factory=list)

    @property
    def overhead_ratio(self) -> float | None:
        """Traced over untraced wall time of the same units of work."""
        if not self.traced or len(self.traced) != len(self.units):
            return None
        return sum(u.busy_s for u in self.traced) / sum(u.busy_s for u in self.units)


def _sample_setup(workload: Workload, samples: list[float]) -> None:
    """Append the mean time of set-ups repeated for SETUP_BATCH_SECONDS (at least one)."""
    count, start = 0, perf_counter()
    while count == 0 or perf_counter() - start < SETUP_BATCH_SECONDS:
        workload.setup()
        count += 1
    samples.append((perf_counter() - start) / count)


def _run_units(workload: Workload, seconds: float, count: int | None, tracer,
               errors: list[str], between) -> list[Unit]:
    """Run units until `seconds` have passed (at least one), or exactly `count`.

    The checks and `between()` run after each unit, with the tracer
    uninstalled.
    """
    units: list[Unit] = []
    start = perf_counter()
    while (len(units) < count) if count is not None else (
            not units or perf_counter() - start < seconds):
        try:
            if tracer is not None:
                tracer.run_id = len(units)
            unit, outputs = workload.run(tracer)
            if tracer is not None:
                tracer.uninstall()
            try:
                workload.check(unit, outputs)
                between()
            finally:
                if tracer is not None:
                    tracer.install()
        except Exception as exc:   # a unit that raises is a failed operation
            errors.append(f"unit {len(units)}: {type(exc).__name__}: {exc}")
            break
        units.append(unit)
    return units


def measure(workload: Workload, seconds: float, tracer=None) -> Measurement:
    """Sample the set-up time, then run units for `seconds`.

    With a tracer, the first half of the time runs untraced and the same
    number of units then runs traced; their wall times give the tracing
    overhead, and only the traced units feed the per-layer metrics.
    """
    setup_s: list[float] = []
    for _ in range(SETUP_SAMPLES):
        _sample_setup(workload, setup_s)
    cheap = max(setup_s) < SETUP_BATCH_SECONDS

    def between():
        if cheap:
            _sample_setup(workload, setup_s)

    errors: list[str] = []
    if tracer is None:
        units = _run_units(workload, seconds, None, None, errors, between)
        return Measurement(setup_s, units, errors)
    units = _run_units(workload, seconds / 2.0, None, None, errors, between)
    traced: list[Unit] = []
    if not errors:
        tracer.install()
        try:
            traced = _run_units(workload, 0.0, len(units), tracer, errors, between)
        finally:
            tracer.uninstall()
    return Measurement(setup_s, units, errors, traced)


def latency_summary(units: list[Unit]) -> dict[str, float]:
    """Median, tail and per-unit early/late latency over all units' items.

    The tail is the highest percentile with at least ten samples beyond
    it: the 11th largest sample (the largest when there are fewer).
    """
    samples = sorted(x for u in units for x in u.latencies_ms)
    n = len(samples)
    beyond = EDGE_ITEMS if n > EDGE_ITEMS else 0
    early = [x for u in units for x in u.latencies_ms[:EDGE_ITEMS]]
    late = [x for u in units for x in u.latencies_ms[-EDGE_ITEMS:]]
    return {
        "n": n,
        "p50": statistics.median(samples),
        "tail": samples[n - 1 - beyond],
        "tail_percentile": 100.0 * (1.0 - beyond / n),
        "early": statistics.median(early),
        "late": statistics.median(late),
    }
