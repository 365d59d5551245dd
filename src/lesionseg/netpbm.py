"""Binary netpbm (P5/P6) reading and writing.

The on-disk codec for the whole package: grayscale frames and masks are P5,
color frames P6, always 8-bit with maxval 255.  Round trips are byte-exact,
which the persistence tests rely on.
"""

from __future__ import annotations

import io
import os
from pathlib import Path

import numpy as np

from .errors import ValidationError, is_binary, is_probability

_WHITESPACE = b" \t\r\n"


def _read_token(stream: io.BufferedIOBase, path: Path) -> bytes:
    """Next header token, skipping whitespace and '#' comments."""
    token = b""
    while True:
        ch = stream.read(1)
        if not ch:
            if token:
                return token
            raise ValidationError(f"{path}: unexpected end of netpbm header")
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = stream.read(1)
            continue
        if ch in _WHITESPACE:
            if token:
                return token
            continue
        token += ch


def read_netpbm(path: str | Path) -> np.ndarray:
    """Read a binary PGM/PPM file.

    Returns a float64 array in [0, 1]: shape (H, W) for P5 and (H, W, 3)
    for P6. A malformed file is a ValidationError naming it.
    """
    path = Path(path)
    with path.open("rb") as fh:
        magic = _read_token(fh, path)
        if magic not in (b"P5", b"P6"):
            raise ValidationError(f"{path}: unsupported netpbm magic {magic!r} (want P5 or P6)")
        header = [_read_token(fh, path) for _ in range(3)]
        if not all(token.isdigit() for token in header):
            raise ValidationError(f"{path}: netpbm width, height and maxval {header} "
                                  "must be non-negative integers")
        width, height, maxval = map(int, header)
        if width == 0 or height == 0:
            raise ValidationError(f"{path}: zero-size netpbm image {width}x{height}")
        if not 0 < maxval < 256:
            raise ValidationError(f"{path}: only 8-bit netpbm supported, maxval={maxval}")
        channels = 3 if magic == b"P6" else 1
        size = width * height * channels
        # a header may claim more pixels than memory holds: check before reading
        if size > os.fstat(fh.fileno()).st_size - fh.tell():
            raise ValidationError(f"{path}: truncated pixel data")
        payload = fh.read(size)
    samples = np.frombuffer(payload, dtype=np.uint8)
    if maxval < 255 and samples.max() > maxval:   # no 8-bit sample exceeds 255
        raise ValidationError(f"{path}: sample {samples.max()} exceeds maxval {maxval}")
    pixels = samples.astype(np.float64) / maxval
    if channels == 3:
        return pixels.reshape(height, width, 3)
    return pixels.reshape(height, width)


def _write(path: str | Path, magic: str, image: np.ndarray) -> None:
    """Write `image` with maxval 255, refusing a value outside [0, 1] or NaN."""
    if not is_probability(image):
        raise ValidationError(f"{path}: pixel values must lie in [0, 1] (NaN is refused)")
    header = f"{magic}\n{image.shape[1]} {image.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + np.rint(image * 255.0).astype(np.uint8).tobytes())


def write_pgm(path: str | Path, image: np.ndarray) -> None:
    """Write a (H, W) array in [0, 1] as a binary PGM with maxval 255."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 2:
        raise ValidationError(f"write_pgm expects (H, W), got shape {image.shape}")
    _write(path, "P5", image)


def write_ppm(path: str | Path, image: np.ndarray) -> None:
    """Write a (H, W, 3) array in [0, 1] as a binary PPM with maxval 255."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValidationError(f"write_ppm expects (H, W, 3), got shape {image.shape}")
    _write(path, "P6", image)


def write_mask(path: str | Path, mask: np.ndarray) -> None:
    """Write a binary mask as P5 with foreground 255.

    The mask must be strictly binary; probability maps have to be
    thresholded first.
    """
    mask = np.asarray(mask, dtype=np.float64)
    if mask.ndim == 3 and mask.shape[0] == 1:
        mask = mask[0]
    if mask.ndim != 2:
        raise ValidationError(f"write_mask expects a 2-d mask, got shape {mask.shape}")
    if not is_binary(mask):
        raise ValidationError("write_mask: mask is not binary; threshold it first")
    write_pgm(path, mask)


def read_mask(path: str | Path) -> np.ndarray:
    """Read a P5 mask, binarizing at pixel value 128 (>= 128 is foreground)."""
    image = read_netpbm(path)
    if image.ndim != 2:
        raise ValidationError(f"{path}: masks must be single-channel PGM")
    return (image >= 128.0 / 255.0).astype(np.float64)
