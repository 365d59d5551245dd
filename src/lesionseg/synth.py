"""Synthetic ultrasound-like video generator.

Each sequence is a darker elliptical lesion drifting and deforming over a
brighter background, with optional lesion-like distractor blobs, Gaussian
boundary blur, and multiplicative speckle noise (mean-1 gamma). Ground
truth comes from the analytic pre-blur ellipse, so masks stay exact no
matter how degraded the intensities are. Everything is a pure function of
(config, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter

from .autodiff import Tensor
from .data import Padding, VideoSequence, write_sequence, write_split_files
from .errors import GenerationError, ValidationError

AXIS_JITTER = 0.2          # per-sequence relative spread of the lesion semi-axes
BACKGROUND = 0.55          # tissue intensity
LESION_INTENSITY = 0.22


@dataclass(frozen=True)
class SynthConfig:
    """Geometry and degradation knobs for one generated sequence."""

    resolution: int = 64
    frames: int = 5
    axes: tuple[float, float] = (10.0, 7.0)     # lesion semi-axes, pixels
    max_speed: float = 1.0                      # drift, pixels per frame
    deformation: float = 0.08                   # per-frame relative axis wobble
    blur_sigma: float = 1.0
    speckle: float = 0.25                       # multiplicative noise strength
    distractors: int = 2
    distractor_similarity: float = 0.6          # 0 = background, 1 = lesion intensity

    def __post_init__(self):
        if self.resolution < 16:
            raise ValidationError("resolution must be >= 16")
        if self.frames < 1:
            raise ValidationError("frames must be >= 1")
        if min(self.axes) <= 0:
            raise ValidationError("ellipse semi-axes must be positive")
        if not 0.0 <= self.deformation < 0.5:
            raise ValidationError("deformation must be in [0, 0.5)")
        if self.blur_sigma < 0 or self.max_speed < 0:
            raise ValidationError("blur_sigma and max_speed must be >= 0")
        if not 0.0 <= self.speckle <= 1.0:
            raise ValidationError("speckle must be in [0, 1]")
        if self.distractors < 0:
            raise ValidationError("distractors must be >= 0")
        if not 0.0 <= self.distractor_similarity <= 1.0:
            raise ValidationError("distractor_similarity must be in [0, 1]")


@dataclass(frozen=True)
class EllipseSpec:
    """One frame's analytic lesion geometry."""

    cx: float
    cy: float
    a: float
    b: float
    angle: float


def _ellipse_region(res: int, e: EllipseSpec) -> np.ndarray:
    yy, xx = np.mgrid[0:res, 0:res].astype(np.float64)
    dx, dy = xx - e.cx, yy - e.cy
    ca, sa = np.cos(e.angle), np.sin(e.angle)
    u = ca * dx + sa * dy
    v = -sa * dx + ca * dy
    return (u / e.a) ** 2 + (v / e.b) ** 2 <= 1.0


def _lesion_track(cfg: SynthConfig, rng: np.random.Generator) -> list[EllipseSpec]:
    res = cfg.resolution
    a0 = cfg.axes[0] * (1.0 + AXIS_JITTER * rng.uniform(-1, 1))
    b0 = cfg.axes[1] * (1.0 + AXIS_JITTER * rng.uniform(-1, 1))
    center = res / 2.0 + rng.uniform(-res / 16.0, res / 16.0, size=2)
    heading = rng.uniform(0.0, 2.0 * np.pi)
    speed = cfg.max_speed * rng.uniform(0.3, 1.0)
    velocity = speed * np.array([np.cos(heading), np.sin(heading)])
    angle = rng.uniform(0.0, np.pi)
    spin = rng.uniform(-0.1, 0.1)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=2)
    freq = rng.uniform(0.5, 1.5, size=2)
    track = []
    for t in range(cfg.frames):
        a = a0 * (1.0 + cfg.deformation * np.sin(phase[0] + freq[0] * t))
        b = b0 * (1.0 + cfg.deformation * np.sin(phase[1] + freq[1] * t))
        cx, cy = center + velocity * t
        spec = EllipseSpec(cx=float(cx), cy=float(cy), a=float(a), b=float(b),
                           angle=float(angle + spin * t))
        reach = max(spec.a, spec.b)
        if (spec.cx - reach < 1.0 or spec.cx + reach > res - 2.0
                or spec.cy - reach < 1.0 or spec.cy + reach > res - 2.0):
            raise GenerationError(
                f"lesion leaves the field of view at frame {t}; reduce max_speed, "
                f"axes, or frame count so the trajectory stays inside {res}x{res}")
        track.append(spec)
    return track


def synth_generate(cfg: SynthConfig, seed) -> VideoSequence:
    """Generate one synthetic sequence, fully determined by (cfg, seed)."""
    rng = np.random.default_rng(seed)
    res = cfg.resolution
    track = _lesion_track(cfg, rng)
    blobs = []
    level = BACKGROUND - cfg.distractor_similarity * (BACKGROUND - LESION_INTENSITY)
    for _ in range(cfg.distractors):
        spec = EllipseSpec(
            cx=float(rng.uniform(0.1 * res, 0.9 * res)),
            cy=float(rng.uniform(0.1 * res, 0.9 * res)),
            a=float(rng.uniform(0.4, 0.9) * cfg.axes[0]),
            b=float(rng.uniform(0.4, 0.9) * cfg.axes[1]),
            angle=float(rng.uniform(0.0, np.pi)),
        )
        blobs.append(_ellipse_region(res, spec))
    frames, masks = [], []
    for spec in track:
        img = np.full((res, res), BACKGROUND, dtype=np.float64)
        for blob in blobs:
            img[blob] = level
        region = _ellipse_region(res, spec)
        img[region] = LESION_INTENSITY
        if cfg.blur_sigma > 0:
            img = gaussian_filter(img, cfg.blur_sigma, mode="nearest")
        if cfg.speckle > 0:
            k = 1.0 / cfg.speckle ** 2
            img = img * rng.gamma(k, 1.0 / k, size=img.shape)
        frames.append(np.clip(img, 0.0, 1.0)[None, :, :])
        masks.append(region.astype(np.float64)[None, :, :])
    return VideoSequence(
        name="synthetic",
        frames=[Tensor(f) for f in frames],
        masks=[Tensor(m) for m in masks],
        padding=Padding(),
    )


def make_dataset(root, count: int, cfg: SynthConfig, seed: int,
                 val_count: int | None = None) -> tuple[list[str], list[str]]:
    """Write `count` generated sequences as a directory tree with split files.

    Sequence i is seeded by (seed, i), so trees regenerate byte-identically.
    Returns the (train, val) name lists: validation is the first val_count
    names of one shuffle seeded by `seed`, and train the rest. val_count 0
    puts every sequence in train; None holds out about a tenth, and at
    least one sequence on each side when count > 1.
    """
    if count < 1:
        raise ValidationError("count must be >= 1")
    if val_count is None:
        val_count = count - max(1, min(count - 1, round(0.9 * count)))
    if not 0 <= val_count < count:
        raise ValidationError(f"val_count must be in [0, {count})")
    root = Path(root)
    names = [f"synth{i:03d}" for i in range(count)]
    for i, name in enumerate(names):
        seq = synth_generate(cfg, [seed, i])
        write_sequence(root, name,
                       [f.data for f in seq.frames],
                       [m.data for m in seq.masks])
    order = list(names)
    np.random.default_rng(seed).shuffle(order)
    val = sorted(order[:val_count])
    train = sorted(set(names) - set(val))
    write_split_files(root, train, val)
    return train, val
