"""Dataset IO in a DAVIS-2017-style directory layout, plus clip sampling.

Layout::

    root/
      JPEGImages/<sequence>/00000.pgm  (or .ppm)
      Annotations/<sequence>/00000.pgm
      ImageSets/train.txt  val.txt

Frames load as grayscale float64 in [0, 1] (color inputs are averaged
over channels), masks binarize at 128. Every sequence is center-padded
to a multiple of the encoder stride; the padding is recorded so
predictions can be cropped back to the original resolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .config import read_text
from .errors import ValidationError
from .model import ModelConfig
from .netpbm import read_mask, read_netpbm, write_mask, write_pgm


@dataclass(frozen=True)
class Padding:
    """Rows/columns added on each side to reach a stride multiple."""

    top: int = 0
    bottom: int = 0
    left: int = 0
    right: int = 0

    @property
    def any(self) -> bool:
        return bool(self.top or self.bottom or self.left or self.right)


def pad_to_multiple(img: np.ndarray, stride: int,
                    mode: str = "edge") -> tuple[np.ndarray, Padding]:
    """Center-pad a (1, H, W) array so H and W divide by stride; `mode` is np.pad's."""
    _, h, w = img.shape
    dh = (-h) % stride
    dw = (-w) % stride
    pad = Padding(top=dh // 2, bottom=dh - dh // 2, left=dw // 2, right=dw - dw // 2)
    if not pad.any:
        return img, pad
    spec = ((0, 0), (pad.top, pad.bottom), (pad.left, pad.right))
    return np.pad(img, spec, mode=mode), pad


def unpad(arr: np.ndarray, pad: Padding) -> np.ndarray:
    """Crop a (..., H, W) array back to the pre-padding resolution."""
    if not pad.any:
        return arr
    h, w = arr.shape[-2], arr.shape[-1]
    return arr[..., pad.top:h - pad.bottom, pad.left:w - pad.right]


@dataclass
class VideoSequence:
    """One video: frames, optional aligned masks, and padding metadata."""

    name: str
    frames: list[Tensor]
    masks: list[Tensor] | None
    padding: Padding = Padding()

    def __post_init__(self):
        if self.masks is not None and len(self.masks) != len(self.frames):
            raise ValidationError(
                f"{self.name}: {len(self.masks)} masks for {len(self.frames)} frames")
        shapes = {f.shape for f in self.frames}
        if self.masks is not None:
            shapes |= {m.shape for m in self.masks}
        if len(shapes) > 1:
            raise ValidationError(f"{self.name}: mixed resolutions {sorted(shapes)}")

    def __len__(self) -> int:
        return len(self.frames)


@dataclass(frozen=True)
class Clip:
    """Three consecutive frames with ground truth, for one training step."""

    frames: tuple[Tensor, Tensor, Tensor]
    masks: tuple[Tensor, Tensor, Tensor]
    sequence: str
    start: int


def _to_gray(img: np.ndarray) -> np.ndarray:
    """(H, W) or (H, W, 3) in [0,1] -> (1, H, W) grayscale by channel mean."""
    if img.ndim == 3:
        img = img.mean(axis=2)
    return img[None, :, :]


def read_split(root: Path, split: str) -> list[str]:
    path = Path(root) / "ImageSets" / f"{split}.txt"
    if not path.is_file():
        raise FileNotFoundError(f"split file not found: {path}")
    names = [line.strip() for line in read_text(path).splitlines() if line.strip()]
    if len(set(names)) < len(names):
        twice = next(name for name in names if names.count(name) > 1)
        raise ValidationError(f"{path} lists sequence {twice!r} more than once")
    return names


def sequence_names(root) -> list[str]:
    """The sequence directories under root/JPEGImages, name-sorted."""
    img_root = Path(root) / "JPEGImages"
    if not img_root.is_dir():
        raise FileNotFoundError(f"dataset root {root} has no JPEGImages directory")
    return sorted(p.name for p in img_root.iterdir() if p.is_dir())


def load_sequence(root, name: str, stride: int) -> VideoSequence:
    """Load one sequence, its masks if it has any, padded to a stride multiple."""
    frames, masks, pad = _read_sequence(root, name, stride, every_mask=True)
    return VideoSequence(name=name, frames=frames, masks=masks, padding=pad)


def _read_sequence(root, name: str, stride: int, every_mask: bool):
    """(frames, masks, padding) of one sequence, padded to a stride multiple.

    Masks are None without an annotation directory. Without `every_mask`
    only the first frame's annotation is read, which is all propagation
    needs.
    """
    frame_dir = Path(root) / "JPEGImages" / name
    mask_dir = Path(root) / "Annotations" / name
    frame_paths = sorted(list(frame_dir.glob("*.pgm")) + list(frame_dir.glob("*.ppm")),
                         key=lambda p: p.name)
    if not frame_paths:
        raise FileNotFoundError(f"no .pgm/.ppm frames under {frame_dir}")
    by_stem: dict[str, Path] = {}
    for fp in frame_paths:   # both would pair with one annotation
        twin = by_stem.setdefault(fp.stem, fp)
        if twin is not fp:
            raise ValidationError(
                f"{frame_dir}: frames {twin.name} and {fp.name} share the stem {fp.stem!r}")
    has_masks = mask_dir.is_dir()
    frames: list[np.ndarray] = []
    masks: list[np.ndarray] = []
    for i, fp in enumerate(frame_paths):
        frames.append(_to_gray(read_netpbm(fp)))
        if has_masks and (every_mask or i == 0):
            mp = mask_dir / (fp.stem + ".pgm")
            if not mp.is_file():
                raise FileNotFoundError(
                    f"missing annotation {mp} for listed frame {fp.name}")
            masks.append(read_mask(mp)[None, :, :])
    base = frames[0].shape
    for i, arr in enumerate(frames):
        if arr.shape != base:
            raise ValidationError(
                f"{name}: frame {frame_paths[i].name} is {arr.shape[1:]}, first frame is {base[1:]}")
    for i, arr in enumerate(masks):
        if arr.shape != base:
            raise ValidationError(
                f"{name}: mask for {frame_paths[i].name} is {arr.shape[1:]}, frames are {base[1:]}")
    padded_frames, pad = zip(*(pad_to_multiple(f, stride, "edge") for f in frames))
    padded_masks = [Tensor(pad_to_multiple(m, stride, "constant")[0]) for m in masks]
    return ([Tensor(f) for f in padded_frames], padded_masks if has_masks else None, pad[0])


def load_dataset(root, split: str | None = None,
                 total_stride: int = ModelConfig().total_stride) -> list[VideoSequence]:
    """Load every sequence under root (or just one split), name-sorted."""
    names = sequence_names(root)
    if split is not None:
        listed = read_split(root, split)
        missing = sorted(set(listed) - set(names))
        if missing:
            raise FileNotFoundError(
                f"{split}.txt lists sequences with no frame directory: {missing[:5]}")
        names = sorted(listed)
    return [load_sequence(root, n, total_stride) for n in names]


def sample_clips(seq: VideoSequence, rng: np.random.Generator):
    """Endless stream of random 3-frame clips from one trainable sequence."""
    while True:
        start = int(rng.integers(0, len(seq) - 2))
        yield Clip(
            frames=tuple(seq.frames[start:start + 3]),
            masks=tuple(seq.masks[start:start + 3]),
            sequence=seq.name,
            start=start,
        )


def write_sequence(root, seq_name: str, frames: list[np.ndarray],
                   masks: list[np.ndarray]) -> None:
    """Write one sequence's frames and masks into the directory layout."""
    root = Path(root)
    frame_dir = root / "JPEGImages" / seq_name
    mask_dir = root / "Annotations" / seq_name
    frame_dir.mkdir(parents=True, exist_ok=True)
    mask_dir.mkdir(parents=True, exist_ok=True)
    for i, (frame, mask) in enumerate(zip(frames, masks)):
        arr = frame[0] if frame.ndim == 3 else frame
        write_pgm(frame_dir / f"{i:05d}.pgm", arr)
        write_mask(mask_dir / f"{i:05d}.pgm", mask)


def write_split_files(root, train: list[str], val: list[str]) -> None:
    sets = Path(root) / "ImageSets"
    sets.mkdir(parents=True, exist_ok=True)
    (sets / "train.txt").write_text("".join(n + "\n" for n in train))
    (sets / "val.txt").write_text("".join(n + "\n" for n in val))
