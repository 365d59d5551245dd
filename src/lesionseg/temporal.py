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
  ``return_attention`` streams the memory in plain numpy, a chunk of
  whole entries at a time, with an online softmax (Milakov & Gimelshein,
  arXiv 1805.02867; Rabe & Staats, arXiv 2112.05682). A chunk holds as
  many entries as keep its score block within ``CHUNK_SCORES`` elements,
  but at least one, so memory does not grow with the number of entries;
  a shorter memory is read as one chunk of its own size. Scores are in
  column layout: a chunk's scores are the (n*h*w, h*w) product keys^T @
  query, so keys and values are read as the bank stores them, maxima and
  sums run down columns and the (C/2, h*w) output needs no transpose. The
  shift that keeps exp finite is pinned at the first chunk's exact column
  max (that chunk holds the pinned first frame). Later chunks get their
  scores minus the shift straight from the GEMM, from a row of ones under
  the keys and a row of -shift under the query, which is scaled by
  1/sqrt(C/8) once. The shift moves up, rescaling the running sums, only
  when a score exceeds it by more than ``SHIFT_SLACK``, and the output is
  divided by the column sums once after the last chunk (FlashAttention-2,
  Dao, arXiv 2307.08691). So a score block takes five passes: GEMM, max
  (an overflow check), exp, sum, GEMM. It agrees with the dense read to
  rounding, not bitwise.
* Every other read takes the dense ``Tensor`` path over the whole
  (h*w, T*h*w) score matrix: taped reads, whose backward needs the full
  attention (in training the memory holds at most two entries), and
  ``return_attention=True``. It is the reference the streamed read is
  tested against.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, concat, matmul, recording, reshape, softmax_rows, transpose
from .errors import ShapeError, StateError

# score elements per chunk of an untaped read (512 KiB of float64): one
# entry per chunk at 16x16 positions, 16 entries at 8x8
CHUNK_SCORES = 2 ** 16

# how far a streamed read's scores may rise above its shift before the shift
# moves up. Safe: every exponential stays below e^64 (about 6e27), so even
# 2^60 of them sum below 1e47, far from float64's limit near e^709; a
# float's relative precision does not depend on its size; and the term at
# the shift itself is 1, so terms that underflow (below e^-745) weigh under
# 1e-300 of the sum, as in the dense read
SHIFT_SLACK = 64.0


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
        return _streamed_read(query_key, keys, values)

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


def _side_by_side(maps: list[Tensor], out=None) -> np.ndarray:
    """The (C, n*hw) matrix of n (C, h, w) maps: a view of a lone map."""
    flat = [m.data.reshape(m.shape[0], -1) for m in maps]
    if len(flat) == 1 and out is None:
        return flat[0]
    return np.concatenate(flat, axis=1, out=out)


def _streamed_read(query_key: Tensor, keys: list[Tensor], values: list[Tensor]) -> Tensor:
    """Online softmax over chunks in column layout, with one pinned shift."""
    ck, h, w = query_key.shape
    hw = h * w
    per_chunk = min(len(keys), max(1, CHUNK_SCORES // (hw * hw)))
    # one chunk's keys side by side over a row of ones, and the scaled query
    # over a row of -shift: their product is the chunk's scores minus the shift
    block = np.empty((ck + 1, per_chunk * hw))
    block[ck] = 1.0
    shifted = np.empty((ck + 1, hw))
    shifted[:ck] = query_key.data.reshape(ck, hw) * (1.0 / np.sqrt(ck))
    shifted[ck] = 0.0
    col_sum, mixed = np.zeros(hw), np.zeros((values[0].shape[0], hw))
    for start in range(0, len(keys), per_chunk):
        chunk = slice(start, start + per_chunk)
        width = len(keys[chunk]) * hw
        _side_by_side(keys[chunk], out=block[:ck, :width])
        scores = block[:, :width].T @ shifted                   # (n*hw, hw): scores - shift
        # the shift is the first chunk's column max (that chunk holds the
        # pinned first frame), and moves up only before exp could overflow
        if start == 0 or scores.max() > SHIFT_SLACK:
            rise = scores.max(axis=0)
            if start:
                np.maximum(rise, 0.0, out=rise)
                carried = np.exp(-rise)
                col_sum *= carried
                mixed *= carried
            scores -= rise
            shifted[ck] -= rise
        np.exp(scores, out=scores)
        col_sum += scores.sum(axis=0)
        mixed += _side_by_side(values[chunk]) @ scores          # (C/2, hw)
    mixed /= col_sum        # normalize once, after the last chunk
    return Tensor(mixed.reshape(-1, h, w))


def memory_read(bank: MemoryBank, query_key: Tensor) -> Tensor:
    """Attend over the whole memory bank with the current frame's key."""
    if len(bank) == 0:
        raise StateError("memory_read on an empty bank")
    return attention_read(query_key, bank.keys, bank.values)
