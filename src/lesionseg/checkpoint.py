"""Checkpoint persistence: a text manifest plus one little-endian
float32 blob, with the effective config, step count, and RNG state.

Layout of a checkpoint directory::

    manifest.txt   one line per tensor: "name = shape @ byte_offset"
    params.bin     all tensors, row-major float32, little-endian
    config.ini     effective RunConfig echo
    state.txt      step count, the sha256 of params.bin and the sampler's
                   bit-generator state (json)

Saving quantizes the in-memory parameters to their float32 values, so a
model that has just been saved is bitwise identical to its reload and
evaluation metrics survive the round trip unchanged. The four files are
written into a sibling ``.<name>.partial`` directory that then replaces
the checkpoint, so a failed save leaves the previous one. Loading checks the
blob against its recorded sha256, so a flipped bit is refused. Text that
is not UTF-8, a malformed manifest line and a ``state.txt`` that is not a
JSON object with an integer step and a string sha256 are refused as
well; every refusal is a ``ValidationError`` naming the file, or the
checkpoint directory when no one file is at fault (a parameter name
that does not fit the stored config, for one).
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np

from .config import RunConfig, config_to_text, load_config, read_text
from .errors import ValidationError
from .model import SegmentationModel

MANIFEST = "manifest.txt"
BLOB = "params.bin"
CONFIG = "config.ini"
STATE = "state.txt"


def save_checkpoint(path, model: SegmentationModel, run_config: RunConfig,
                    step: int = 0, rng: np.random.Generator | None = None) -> None:
    """Write the checkpoint directory; quantizes model params to float32."""
    path = Path(path)
    staged = path.with_name(f".{path.name}.partial")
    previous = path.with_name(f".{path.name}.previous")
    for leftover in (staged, previous):   # from a save that crashed
        shutil.rmtree(leftover, ignore_errors=True)
    staged.mkdir(parents=True)
    lines = []
    chunks = []
    offset = 0
    for name, p in model.parameters().items():
        quantized = p.data.astype("<f4")
        p.data = quantized.astype(np.float64)   # keep memory == disk
        shape = "x".join(str(d) for d in p.shape)
        lines.append(f"{name} = {shape} @ {offset}\n")
        chunks.append(quantized.tobytes())
        offset += quantized.nbytes
    blob = b"".join(chunks)
    state = {"step": int(step), "params_sha256": hashlib.sha256(blob).hexdigest()}
    if rng is not None:
        state["rng"] = rng.bit_generator.state
    try:
        (staged / MANIFEST).write_text("".join(lines))
        (staged / BLOB).write_bytes(blob)
        (staged / CONFIG).write_text(config_to_text(run_config))
        (staged / STATE).write_text(json.dumps(state, indent=1) + "\n")
    except BaseException:
        shutil.rmtree(staged)
        raise
    if path.exists():
        path.rename(previous)
    staged.rename(path)
    shutil.rmtree(previous, ignore_errors=True)


def _parse_manifest(path: Path) -> list[tuple[str, tuple[int, ...], int]]:
    entries = []
    for line in read_text(path).splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            name, rest = line.split(" = ", 1)
            shape_part, offset_part = rest.split(" @ ", 1)
            shape = tuple(int(d) for d in shape_part.split("x"))
            if min(shape) < 0:
                raise ValueError("negative dimension")
            entries.append((name, shape, int(offset_part)))
        except ValueError as exc:
            raise ValidationError(f"malformed line in {path}: {line!r}") from exc
    return entries


def _parse_state(path: Path) -> dict:
    try:
        state = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc
    if (not isinstance(state, dict) or type(state.get("step")) is not int
            or not isinstance(state.get("params_sha256"), str)):
        raise ValidationError(
            f"{path} must hold a JSON object with an integer step and a string params_sha256")
    return state


def load_checkpoint(path) -> tuple[SegmentationModel, RunConfig, int, dict | None]:
    """Rebuild the model from a checkpoint directory.

    Returns (model, run_config, step, rng_state). Parameters come back at
    float64 working precision holding exactly their float32 values.
    """
    path = Path(path)
    for required in (MANIFEST, BLOB, CONFIG, STATE):
        if not (path / required).is_file():
            raise FileNotFoundError(f"checkpoint {path} is missing {required}")
    run_config = load_config(path / CONFIG)
    model = SegmentationModel(run_config, seed=run_config.seed)
    blob = (path / BLOB).read_bytes()
    entries = _parse_manifest(path / MANIFEST)
    state = _parse_state(path / STATE)
    try:   # the files above name themselves; these errors name the checkpoint
        arrays = {}
        end = 0   # the tensors must tile the blob: no gap, overlap or trailing bytes
        for name, shape, offset in entries:
            if offset != end:
                raise ValidationError(f"manifest puts tensor {name} at byte {offset}, "
                                      f"expected {end}")
            end = offset + 4 * (int(np.prod(shape)) if shape else 1)
            if end > len(blob):
                raise ValidationError(f"blob truncated for tensor {name}")
            flat = np.frombuffer(blob[offset:end], dtype="<f4")
            if not np.isfinite(flat).all():
                raise ValidationError(f"parameter {name} holds non-finite values")
            arrays[name] = flat.astype(np.float64).reshape(shape)
        if end != len(blob):
            raise ValidationError(f"blob has {len(blob) - end} bytes after its last tensor")
        if hashlib.sha256(blob).hexdigest() != state["params_sha256"]:
            raise ValidationError(f"{BLOB} does not match the sha256 in {STATE}")
        model.load_parameter_data(arrays)
    except ValidationError as exc:
        raise ValidationError(f"checkpoint {path}: {exc}") from exc
    return model, run_config, state["step"], state.get("rng")
