"""Synthetic ultrasound-like video generator.

Each sequence is a darker elliptical lesion drifting and deforming over a
brighter background, with optional lesion-like distractor blobs, Gaussian
boundary blur, and multiplicative speckle noise (mean-1 gamma). Ground
truth comes from the analytic pre-blur ellipse, so masks stay exact no
matter how degraded the intensities are. Everything is a pure function of
(config, seed).

The blur is a separable Gaussian of radius int(4 sigma + 0.5), applied
down axis 0 and then along axis 1, each over an edge-replicated border.
It does the floating-point operations of scipy.ndimage.gaussian_filter(
img, sigma, mode="nearest") in the same order, so it computes the same
bits: each output starts from the centre tap, x[i] * w[0], and adds
(x[i-j] + x[i+j]) * w[j] for j from the radius down to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

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
        if not all(0.0 < a < math.inf for a in self.axes):
            raise ValidationError(f"axes must be finite and positive, got {self.axes}")
        if not 0.0 <= self.deformation < 0.5:
            raise ValidationError("deformation must be in [0, 0.5)")
        if not 0.0 <= self.max_speed < math.inf:
            raise ValidationError(f"max_speed must be finite and >= 0, got {self.max_speed}")
        if not 0.0 <= self.blur_sigma < math.inf:
            raise ValidationError(f"blur_sigma must be finite and >= 0, got {self.blur_sigma}")
        if _blur_radius(self.blur_sigma) > self.resolution:
            raise ValidationError(
                f"blur_sigma {self.blur_sigma} has radius {_blur_radius(self.blur_sigma)}, "
                f"wider than the resolution {self.resolution}")
        if not 0.0 <= self.speckle <= 1.0:
            raise ValidationError("speckle must be in [0, 1]")
        if self.distractors < 0:
            raise ValidationError("distractors must be >= 0")
        if not 0.0 <= self.distractor_similarity <= 1.0:
            raise ValidationError("distractor_similarity must be in [0, 1]")


def _blur_radius(sigma: float) -> int:
    return int(4.0 * sigma + 0.5)


def _edge_pad(padded: np.ndarray, x: np.ndarray) -> None:
    """Copy x into the middle rows of padded and repeat its edge rows above and below."""
    r, n = (len(padded) - len(x)) // 2, len(x)
    padded[r:r + n] = x
    padded[:r] = x[0]
    padded[r + n:] = x[-1]


def _correlate_axis0(padded: np.ndarray, weights: np.ndarray, out: np.ndarray,
                     tmp: np.ndarray) -> None:
    """Symmetric correlation down axis 0 of a copy padded by r = len(weights) - 1.

    weights[j] is the tap j rows from the centre. The order of the sums is
    the symmetric-kernel loop of scipy.ndimage's correlate1d.
    """
    r, n = len(weights) - 1, out.shape[0]
    np.multiply(padded[r:r + n], weights[0], out=out)
    for j in range(r, 0, -1):
        np.add(padded[r - j:r - j + n], padded[r + j:r + j + n], out=tmp)
        tmp *= weights[j]
        out += tmp


class _Blur:
    """Gaussian blur of (H, W) frames, into buffers reused from frame to frame.

    Both passes correlate down axis 0 of a contiguous copy: the axis-1
    pass reads the axis-0 pass's result transposed, since numpy runs the
    same sums over strided columns several times slower. Each call
    overwrites the array the previous call returned.
    """

    def __init__(self, shape: tuple[int, int], sigma: float):
        r = _blur_radius(sigma)
        if r == 0:
            self.weights = np.ones(1)   # scipy's kernel at radius 0: the identity
        else:
            x = np.arange(-r, r + 1)
            phi = np.exp(-0.5 / (sigma * sigma) * x ** 2)
            self.weights = (phi / phi.sum())[r:]
        h, w = shape
        self.rows = np.empty((h + 2 * r, w))     # the frame, edge-padded
        self.cols = np.empty((w + 2 * r, h))     # the axis-0 result transposed, edge-padded
        self.rows_out = np.empty((h, w))
        self.cols_out = np.empty((w, h))
        self.tmp = np.empty(h * w)
        self.out = np.empty((h, w))

    def __call__(self, img: np.ndarray) -> np.ndarray:
        h, w = img.shape
        _edge_pad(self.rows, img)
        _correlate_axis0(self.rows, self.weights, self.rows_out, self.tmp.reshape(h, w))
        _edge_pad(self.cols, self.rows_out.T)
        _correlate_axis0(self.cols, self.weights, self.cols_out, self.tmp.reshape(w, h))
        self.out[...] = self.cols_out.T
        return self.out


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
    blur = _Blur((res, res), cfg.blur_sigma) if cfg.blur_sigma > 0 else None
    frames, masks = [], []
    for spec in track:
        img = np.full((res, res), BACKGROUND, dtype=np.float64)
        for blob in blobs:
            img[blob] = level
        region = _ellipse_region(res, spec)
        img[region] = LESION_INTENSITY
        if blur is not None:
            img = blur(img)
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
