"""Temporal fusion: a key/value memory of past frames read by attention.

Each past frame contributes one (C/8, h, w) key map and one (C/2, h, w)
value map.  Reading flattens the query key to an (h*w, C/8) matrix, matches
it against all memory positions with a dot product scaled by 1/sqrt(C/8)
(the STM read, arXiv 1904.00607), normalizes with a softmax over the whole
memory axis, and mixes the value vectors.  Every output position is
therefore a convex combination of memory value vectors.

There are two ways to compute a read:

* When nothing records it (no tape is active, or no input requires
  grad; the rule of ``autodiff.recording``), a read without
  ``return_attention`` runs in plain numpy, a chunk of whole memory
  entries at a time, with an online softmax (Milakov & Gimelshein, arXiv
  1805.02867; Rabe & Staats, arXiv 2112.05682). A chunk's score block
  holds at most ``CHUNK_SCORES`` elements, and at least one entry, so
  memory does not grow with the number of entries, and only one chunk's
  keys and values are ever concatenated. A read that fits in one chunk
  runs the same float operations as the dense read and is bitwise equal
  to it. A longer read scales the query by 1/sqrt(C/8) once, mixes each
  chunk's unnormalized exponentials into the output, and divides by the
  row sum once after the last chunk (FlashAttention-2, Dao, arXiv
  2307.08691), so each score block takes six passes: GEMM, max,
  subtract, exp, sum, GEMM. It agrees with the dense read to rounding.
* Every other read stays on the dense ``Tensor`` path over the whole
  (h*w, T*h*w) score matrix: taped reads, whose backward needs the full
  attention (in training the memory holds at most two entries), and
  ``return_attention=True``.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, concat, matmul, recording, reshape, softmax_rows, transpose
from .errors import ShapeError, StateError

# score elements per chunk of an untaped read (512 KiB of float64): one
# entry per chunk at 16x16 positions, 16 entries at 8x8
CHUNK_SCORES = 2 ** 16


class MemoryBank:
    """Keys/values of past frames, insertion-ordered, first entry pinned.

    A capacity of 0 means unlimited, as ``ModelConfig.memory_capacity``
    does. A positive capacity makes an append beyond it evict the oldest
    entry that is not the first frame.
    """

    def __init__(self, capacity: int = 0):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0 (0 = unlimited), got {capacity}")
        self.capacity = capacity
        self.keys: list[Tensor] = []
        self.values: list[Tensor] = []

    def __len__(self) -> int:
        return len(self.keys)

    def append(self, key: Tensor, value: Tensor) -> None:
        if key.ndim != 3 or value.ndim != 3:
            raise ShapeError("memory entries must be (C, h, w) maps")
        if key.shape[1:] != value.shape[1:]:
            raise ShapeError(f"key/value spatial dims disagree: {key.shape} vs {value.shape}")
        if self.keys:
            if key.shape != self.keys[0].shape:
                raise ShapeError(f"key shape {key.shape} != bank {self.keys[0].shape}")
            if value.shape != self.values[0].shape:
                raise ShapeError(f"value shape {value.shape} != bank {self.values[0].shape}")
        self.keys.append(key)
        self.values.append(value)
        if 0 < self.capacity < len(self.keys):
            del self.keys[1], self.values[1]


def _flatten_key(key: Tensor) -> Tensor:
    c, h, w = key.shape
    return reshape(key, (c, h * w))


def attention_read(query_key: Tensor, keys: list[Tensor], values: list[Tensor],
                   *, return_attention: bool = False):
    """Shared attention mechanics for the temporal and spatial reads.

    With ``return_attention`` the (h*w, T*h*w) attention matrix is
    returned with the read.
    """
    ck, h, w = query_key.shape
    if not keys or len(values) != len(keys):
        raise ShapeError(f"attention over {len(keys)} memory keys and {len(values)} values")
    if any(k.shape != query_key.shape for k in keys):
        raise ShapeError("memory key dims do not match the query key")
    cv = values[0].shape[0]
    if any(v.shape != (cv, h, w) for v in values):
        raise ShapeError("memory value dims do not match the query key")
    if not return_attention and not recording([query_key, *keys, *values]):
        return _chunked_read(query_key, keys, values)

    query = transpose(_flatten_key(query_key))                      # (hw, C/8)
    memory_keys = concat([_flatten_key(k) for k in keys], axis=1)   # (C/8, T*hw)
    scores = matmul(query, memory_keys) * (1.0 / np.sqrt(ck))
    attention = softmax_rows(scores)                                # (hw, T*hw)

    memory_values = concat([_flatten_key(v) for v in values], axis=1)
    mixed = matmul(attention, transpose(memory_values))             # (hw, C/2)
    out = reshape(transpose(mixed), (cv, h, w))
    if return_attention:
        return out, attention
    return out


def _chunked_read(query_key: Tensor, keys: list[Tensor], values: list[Tensor]) -> Tensor:
    """Untaped read with an online softmax over chunks of entries."""
    ck, h, w = query_key.shape
    cv, hw = values[0].shape[0], h * w
    query = np.ascontiguousarray(query_key.data.reshape(ck, hw).T)     # (hw, C/8)
    per_chunk = max(1, CHUNK_SCORES // (hw * hw))
    scale = 1.0 / np.sqrt(ck)
    one_chunk = len(keys) <= per_chunk
    if not one_chunk:   # scale the query once, not every score block
        query = query * scale
    mixed = row_max = row_sum = None
    for start in range(0, len(keys), per_chunk):
        chunk = slice(start, start + per_chunk)
        chunk_keys = np.concatenate([k.data.reshape(ck, hw) for k in keys[chunk]], axis=1)
        chunk_values = np.ascontiguousarray(     # (n*hw, C/2)
            np.concatenate([v.data.reshape(cv, hw) for v in values[chunk]], axis=1).T)
        scores = query @ chunk_keys                                     # (hw, n*hw)
        if one_chunk:
            scores *= scale
        new_max = scores.max(axis=1, keepdims=True)
        if mixed is not None:
            new_max = np.maximum(row_max, new_max)
        scores -= new_max
        np.exp(scores, out=scores)
        chunk_sum = scores.sum(axis=1, keepdims=True)
        if one_chunk:       # the dense read's exact operations
            scores /= chunk_sum
        if mixed is None:
            row_sum, mixed = chunk_sum, scores @ chunk_values           # (hw, C/2)
        else:
            carried = np.exp(row_max - new_max)
            row_sum = row_sum * carried + chunk_sum
            mixed *= carried
            mixed += scores @ chunk_values
        row_max = new_max
    if not one_chunk:       # normalize once, after the last chunk
        mixed /= row_sum
    return Tensor(np.ascontiguousarray(mixed.T).reshape(cv, h, w))


def memory_read(bank: MemoryBank, query_key: Tensor) -> Tensor:
    """Attend over the whole memory bank with the current frame's key."""
    if len(bank) == 0:
        raise StateError("memory_read on an empty bank")
    return attention_read(query_key, bank.keys, bank.values)
