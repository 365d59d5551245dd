"""Dense float64 tensors with tape-based reverse-mode differentiation.

Everything the network computes goes through the operations in this module.
Conventions:

* all data is ``np.float64``, row-major;
* feature maps are ``(C, H, W)``, matrices ``(m, n)``, vectors ``(n,)``,
  scalars 0-d;
* gradients are recorded on a :class:`Tape`.  Operations executed while a
  tape is active append one node each; ``tape.backward(root)`` replays the
  nodes in reverse execution order, which is always a valid reverse
  topological order.  Outside a tape every operation is a plain forward
  evaluation and produces tensors with ``requires_grad=False``.

Convolution uses cross-correlation semantics (no kernel flip).  Max-pool
gradient ties are broken toward the first maximum in row-major order.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import EvaluationError, ShapeError

__all__ = [
    "Tensor",
    "Tape",
    "recording",
    "add",
    "mul",
    "sub",
    "neg",
    "matmul",
    "linear",
    "relu",
    "sigmoid",
    "log",
    "clamp",
    "tsum",
    "tmean",
    "reshape",
    "transpose",
    "concat",
    "softmax_rows",
    "conv2d",
    "pool2d",
    "upsample2x",
    "grad_check",
]


class Tensor:
    """A dense float64 array plus an optional accumulated gradient."""

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # arithmetic sugar; floats/ints are treated as constants
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __neg__(self):
        return neg(self)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class _Node:
    """One recorded operation: output tensor plus its adjoint callback."""

    __slots__ = ("output", "backward")

    def __init__(self, output: Tensor, backward: Callable[[np.ndarray], None]):
        self.output = output
        self.backward = backward


class Tape:
    """Execution-ordered record of differentiable operations.

    Use as a context manager around the forward pass, then call
    :meth:`backward` on the (scalar) result.  Replaying the nodes in
    reverse recorded order visits every node exactly once.
    """

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _TAPE_STACK.pop()
        assert popped is self

    def backward(self, root: Tensor, seed: np.ndarray | None = None) -> None:
        if not root.requires_grad:
            raise ValueError("backward() root does not require grad (was it computed on this tape?)")
        root.grad = np.ones_like(root.data) if seed is None else np.asarray(seed, dtype=np.float64)
        for node in reversed(self.nodes):
            if node.output.grad is not None:
                node.backward(node.output.grad)


_TAPE_STACK: list[Tape] = []


def recording(inputs: Iterable[Tensor]) -> bool:
    """Whether an op on `inputs` would be recorded: a tape is active and
    at least one input requires grad."""
    return bool(_TAPE_STACK) and any(t.requires_grad for t in inputs)


def _record(inputs: Sequence[Tensor], out_data: np.ndarray,
            backward: Callable[[np.ndarray], None]) -> Tensor:
    """Wrap op output; append a tape node when recording is live."""
    if recording(inputs):
        out = Tensor(out_data, requires_grad=True)
        _TAPE_STACK[-1].nodes.append(_Node(out, backward))
        return out
    return Tensor(out_data)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting expanded."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise and reduction ops


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g, b.shape))

    return _record((a, b), out, backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(-g, b.shape))

    return _record((a, b), out, backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g * a.data, b.shape))

    return _record((a, b), out, backward)


def neg(a: Tensor) -> Tensor:
    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(-g)

    return _record((a,), -a.data, backward)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(g * mask)

    return _record((a,), a.data * mask, backward)


def sigmoid(a: Tensor) -> Tensor:
    # split by sign to avoid overflow in exp
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(g * out * (1.0 - out))

    return _record((a,), out, backward)


def log(a: Tensor) -> Tensor:
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.log(a.data)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(g / a.data)

    return _record((a,), out, backward)


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    out = np.clip(a.data, lo, hi)
    inside = (a.data > lo) & (a.data < hi)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(g * inside)

    return _record((a,), out, backward)


def tsum(a: Tensor) -> Tensor:
    """Sum of all elements, as a 0-d tensor."""
    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(np.full_like(a.data, float(g)))

    return _record((a,), np.asarray(a.data.sum()), backward)


def tmean(a: Tensor) -> Tensor:
    """Mean of all elements, as a 0-d tensor."""
    n = a.size

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(np.full_like(a.data, float(g) / n))

    return _record((a,), np.asarray(a.data.mean()), backward)


# ---------------------------------------------------------------------------
# structural ops


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    old = a.shape

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(g.reshape(old))

    return _record((a,), a.data.reshape(shape), backward)


def transpose(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got shape {a.shape}")

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(np.ascontiguousarray(g.T))

    return _record((a,), np.ascontiguousarray(a.data.T), backward)


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    ts = list(tensors)
    if not ts:
        raise ShapeError("concat of zero tensors")
    out = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray) -> None:
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t.accumulate_grad(g[tuple(idx)])

    return _record(ts, out, backward)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects matrices, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} vs {b.shape}")
    out = a.data @ b.data

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a.accumulate_grad(g @ b.data.T)
        if b.requires_grad:
            b.accumulate_grad(a.data.T @ g)

    return _record((a, b), out, backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Fully connected layer for a 1-d input: ``weight @ x + bias``."""
    if x.ndim != 1:
        raise ShapeError(f"linear expects a vector input, got shape {x.shape}")
    if weight.shape[1] != x.shape[0] or weight.shape[0] != bias.shape[0]:
        raise ShapeError(
            f"linear shapes disagree: weight {weight.shape}, x {x.shape}, bias {bias.shape}")
    out = weight.data @ x.data + bias.data

    def backward(g: np.ndarray) -> None:
        if weight.requires_grad:
            weight.accumulate_grad(np.outer(g, x.data))
        if bias.requires_grad:
            bias.accumulate_grad(g)
        if x.requires_grad:
            x.accumulate_grad(weight.data.T @ g)

    return _record((x, weight, bias), out, backward)


def softmax_rows(s: Tensor) -> Tensor:
    """Row-wise softmax with max-subtraction stabilization."""
    if s.ndim != 2:
        raise ShapeError(f"softmax_rows expects a matrix, got shape {s.shape}")
    if s.shape[1] == 0:
        raise ShapeError("softmax_rows over an empty row dimension")
    shifted = s.data - s.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)

    def backward(g: np.ndarray) -> None:
        if s.requires_grad:
            dot = (g * out).sum(axis=1, keepdims=True)
            s.accumulate_grad(out * (g - dot))

    return _record((s,), out, backward)


# ---------------------------------------------------------------------------
# spatial ops on (C, H, W) maps


def _windows(xp: np.ndarray, kh: int, kw: int, stride: int, hout: int,
             wout: int) -> np.ndarray:
    """(C, kh, kw, Hout, Wout) view of the C-contiguous map `xp`, whose
    element [c, i, j, y, x] is xp[c, i + stride*y, j + stride*x].

    Reshaped, it is the im2col column matrix; written through, it scatters
    columns back onto the map.
    """
    sc, sh, sw = xp.strides
    return np.ndarray((xp.shape[0], kh, kw, hout, wout), dtype=xp.dtype, buffer=xp,
                      strides=(sc, sh, sw, sh * stride, sw * stride))


def conv2d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1,
           padding: int = 0) -> Tensor:
    """2-d cross-correlation of a (C_in, H, W) map with (C_out, C_in, kh, kw) kernels.

    Lowered to im2col + one GEMM: the columns are a copy of one strided
    window view over the zero-padded input.
    """
    if x.ndim != 3 or weight.ndim != 4:
        raise ShapeError(f"conv2d expects (C,H,W) and (O,C,kh,kw), got {x.shape}, {weight.shape}")
    cin, h, w = x.shape
    cout, cin_w, kh, kw = weight.shape
    if cin != cin_w:
        raise ShapeError(f"conv2d channel mismatch: input {cin} vs kernel {cin_w}")
    if bias.shape != (cout,):
        raise ShapeError(f"conv2d bias shape {bias.shape} != ({cout},)")
    if stride < 1:
        raise ShapeError(f"conv2d stride must be >= 1, got {stride}")
    hp, wp = h + 2 * padding, w + 2 * padding
    if kh > hp or kw > wp:
        raise ShapeError(
            f"kernel ({kh}x{kw}) larger than padded input ({hp}x{wp})")
    hout = (hp - kh) // stride + 1
    wout = (wp - kw) // stride + 1

    if padding:
        xp = np.zeros((cin, hp, wp))
        xp[:, padding:padding + h, padding:padding + w] = x.data
    else:
        xp = np.ascontiguousarray(x.data)
    # reshape copies unless the windows happen to tile xp; a strided view
    # must still become C-contiguous, or the GEMM may sum in another order
    cols = np.ascontiguousarray(
        _windows(xp, kh, kw, stride, hout, wout).reshape(cin * kh * kw, hout * wout))
    wmat = weight.data.reshape(cout, cin * kh * kw)
    out = wmat @ cols
    out += bias.data[:, None]
    out = out.reshape(cout, hout, wout)

    def backward(g: np.ndarray) -> None:
        gflat = g.reshape(cout, hout * wout)
        if bias.requires_grad:
            bias.accumulate_grad(gflat.sum(axis=1))
        if weight.requires_grad:
            weight.accumulate_grad((gflat @ cols.T).reshape(weight.shape))
        if x.requires_grad:
            dcols = (wmat.T @ gflat).reshape(cin, kh, kw, hout, wout)
            dxp = np.zeros((cin, hp, wp))
            windows = _windows(dxp, kh, kw, stride, hout, wout)
            for i in range(kh):
                for j in range(kw):
                    windows[:, i, j] += dcols[:, i, j]
            if padding:
                dxp = dxp[:, padding:padding + h, padding:padding + w]
            x.accumulate_grad(dxp)

    return _record((x, weight, bias), out, backward)


def pool2d(x: Tensor, mode: str) -> Tensor:
    """Global pooling of a (C, H, W) map down to a (C,) vector."""
    if x.ndim != 3:
        raise ShapeError(f"pool2d expects (C,H,W), got shape {x.shape}")
    if mode not in ("max", "avg"):
        raise ValueError(f"pool2d mode must be 'max' or 'avg', got {mode!r}")
    c, h, w = x.shape
    flat = x.data.reshape(c, h * w)
    if mode == "max":
        argmax = flat.argmax(axis=1)      # first max in row-major order
        out = flat[np.arange(c), argmax]

        def backward(g: np.ndarray) -> None:
            if x.requires_grad:
                dflat = np.zeros_like(flat)
                dflat[np.arange(c), argmax] = g
                x.accumulate_grad(dflat.reshape(x.shape))
    else:
        out = flat.mean(axis=1)

        def backward(g: np.ndarray) -> None:
            if x.requires_grad:
                x.accumulate_grad(np.broadcast_to((g / (h * w))[:, None, None], x.shape).copy())

    return _record((x,), out, backward)


@lru_cache(maxsize=64)
def _bilinear_matrix(n: int) -> np.ndarray:
    """(2n, n) interpolation matrix for 2x bilinear upsampling, half-pixel centres."""
    m = np.zeros((2 * n, n))
    for i in range(2 * n):
        src = (i + 0.5) / 2.0 - 0.5
        i0 = int(np.floor(src))
        frac = src - i0
        i0c = min(max(i0, 0), n - 1)
        i1c = min(max(i0 + 1, 0), n - 1)
        m[i, i0c] += 1.0 - frac
        m[i, i1c] += frac
    return m


def upsample2x(x: Tensor, mode: str = "nearest") -> Tensor:
    """Upsample a (C, H, W) map to (C, 2H, 2W)."""
    if x.ndim != 3:
        raise ShapeError(f"upsample2x expects (C,H,W), got shape {x.shape}")
    c, h, w = x.shape
    if mode == "nearest":
        out = np.repeat(np.repeat(x.data, 2, axis=1), 2, axis=2)

        def backward(g: np.ndarray) -> None:
            if x.requires_grad:
                x.accumulate_grad(g.reshape(c, h, 2, w, 2).sum(axis=(2, 4)))
    elif mode == "bilinear":
        lh = _bilinear_matrix(h)
        lw = _bilinear_matrix(w)
        out = np.einsum("ij,cjk,lk->cil", lh, x.data, lw, optimize=True)

        def backward(g: np.ndarray) -> None:
            if x.requires_grad:
                x.accumulate_grad(np.einsum("ij,cil,lk->cjk", lh, g, lw, optimize=True))
    else:
        raise ValueError(f"upsample2x mode must be 'nearest' or 'bilinear', got {mode!r}")

    return _record((x,), out, backward)


# ---------------------------------------------------------------------------
# verification


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-5) -> float:
    """Compare the taped gradient of scalar ``f`` at ``x`` to central differences.

    Returns the maximum elementwise relative error with denominator
    ``max(|analytic|, |numeric|, 1e-8)``.
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ValueError(f"eps must lie in [1e-7, 1e-3], got {eps}")

    probe = Tensor(x.data.copy(), requires_grad=True)
    with Tape() as tape:
        out = f(probe)
    if out.ndim != 0 and out.size != 1:
        raise EvaluationError(f"grad_check target must be scalar, got shape {out.shape}")
    if not np.isfinite(out.data).all():
        raise EvaluationError("grad_check target produced a non-finite value")
    tape.backward(out)
    analytic = probe.grad if probe.grad is not None else np.zeros_like(x.data)

    numeric = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    nflat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        for sign in (+1.0, -1.0):
            bumped = flat.copy()
            bumped[i] = orig + sign * eps
            val = f(Tensor(bumped.reshape(x.shape))).data
            if not np.isfinite(val).all():
                raise EvaluationError("grad_check target produced a non-finite value")
            nflat[i] += sign * float(val)
        nflat[i] /= 2.0 * eps

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))
