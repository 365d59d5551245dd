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
  evaluation and produces tensors with ``requires_grad=False``;
* each operation states its forward value and one vector-Jacobian product
  (VJP) per input, as ``(input, vjp)`` pairs handed to ``_record``.  The
  tape runs an input's VJP only if that input requires grad, and
  accumulates the results in the order the pairs are listed.  No
  operation tests ``requires_grad`` itself.

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


def _record(out_data: np.ndarray,
            *pairs: tuple[Tensor, Callable[[np.ndarray], np.ndarray]]) -> Tensor:
    """Wrap an op's output, given one ``(input, vjp)`` pair per input.

    When recording is live, append the node that accumulates ``vjp(g)``
    into each input that requires grad, in the order the pairs are given.
    """
    # the tape test first, so an untaped op builds no generator
    if not (_TAPE_STACK and recording(t for t, _ in pairs)):
        return Tensor(out_data)
    out = Tensor(out_data, requires_grad=True)

    def backward(g: np.ndarray) -> None:
        for t, vjp in pairs:
            if t.requires_grad:
                t.accumulate_grad(vjp(g))

    _TAPE_STACK[-1].nodes.append(_Node(out, backward))
    return out


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
    return _record(a.data + b.data,
                   (a, lambda g: _unbroadcast(g, a.shape)),
                   (b, lambda g: _unbroadcast(g, b.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _record(a.data - b.data,
                   (a, lambda g: _unbroadcast(g, a.shape)),
                   (b, lambda g: _unbroadcast(-g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _record(a.data * b.data,
                   (a, lambda g: _unbroadcast(g * b.data, a.shape)),
                   (b, lambda g: _unbroadcast(g * a.data, b.shape)))


def neg(a: Tensor) -> Tensor:
    return _record(-a.data, (a, lambda g: -g))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return _record(a.data * mask, (a, lambda g: g * mask))


def sigmoid(a: Tensor) -> Tensor:
    # split by sign to avoid overflow in exp
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return _record(out, (a, lambda g: g * out * (1.0 - out)))


def log(a: Tensor) -> Tensor:
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.log(a.data)
    return _record(out, (a, lambda g: g / a.data))


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    inside = (a.data > lo) & (a.data < hi)
    return _record(np.clip(a.data, lo, hi), (a, lambda g: g * inside))


def tsum(a: Tensor) -> Tensor:
    """Sum of all elements, as a 0-d tensor."""
    return _record(np.asarray(a.data.sum()), (a, lambda g: np.full_like(a.data, float(g))))


def tmean(a: Tensor) -> Tensor:
    """Mean of all elements, as a 0-d tensor."""
    return _record(np.asarray(a.data.mean()),
                   (a, lambda g: np.full_like(a.data, float(g) / a.size)))


# ---------------------------------------------------------------------------
# structural ops


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    return _record(a.data.reshape(tuple(shape)), (a, lambda g: g.reshape(a.shape)))


def transpose(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got shape {a.shape}")
    return _record(np.ascontiguousarray(a.data.T), (a, lambda g: np.ascontiguousarray(g.T)))


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    ts = list(tensors)
    if not ts:
        raise ShapeError("concat of zero tensors")
    out = np.concatenate([t.data for t in ts], axis=axis)
    offsets = np.cumsum([0] + [t.shape[axis] for t in ts])
    lead = (slice(None),) * (axis % out.ndim)

    def part(lo: int, hi: int) -> Callable[[np.ndarray], np.ndarray]:
        return lambda g: g[lead + (slice(lo, hi),)]

    return _record(out, *((t, part(lo, hi))
                          for t, lo, hi in zip(ts, offsets[:-1], offsets[1:])))


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects matrices, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} vs {b.shape}")
    return _record(a.data @ b.data,
                   (a, lambda g: g @ b.data.T),
                   (b, lambda g: a.data.T @ g))


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Fully connected layer for a 1-d input: ``weight @ x + bias``."""
    if x.ndim != 1:
        raise ShapeError(f"linear expects a vector input, got shape {x.shape}")
    if weight.shape[1] != x.shape[0] or weight.shape[0] != bias.shape[0]:
        raise ShapeError(
            f"linear shapes disagree: weight {weight.shape}, x {x.shape}, bias {bias.shape}")
    return _record(weight.data @ x.data + bias.data,
                   (weight, lambda g: np.outer(g, x.data)),
                   (bias, lambda g: g),
                   (x, lambda g: weight.data.T @ g))


def softmax_rows(s: Tensor) -> Tensor:
    """Row-wise softmax with max-subtraction stabilization."""
    if s.ndim != 2:
        raise ShapeError(f"softmax_rows expects a matrix, got shape {s.shape}")
    if s.shape[1] == 0:
        raise ShapeError("softmax_rows over an empty row dimension")
    shifted = s.data - s.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)
    return _record(out, (s, lambda g: out * (g - (g * out).sum(axis=1, keepdims=True))))


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
    window view over the zero-padded input.  For stride 1 and padding at
    most k-1 on each axis, the input gradient is the transposed
    convolution: the output gradient, zero-padded by k-1-padding per
    axis, cross-correlated with the flipped kernels, as one im2col and
    one GEMM.  Otherwise it is scattered back one kernel offset at a time.
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

    def dx_transposed(g: np.ndarray) -> np.ndarray:
        ph, pw = kh - 1 - padding, kw - 1 - padding
        if ph or pw:
            gp = np.zeros((cout, hout + 2 * ph, wout + 2 * pw))
            gp[:, ph:ph + hout, pw:pw + wout] = g
        else:
            gp = np.ascontiguousarray(g)
        gcols = np.ascontiguousarray(
            _windows(gp, kh, kw, 1, h, w).reshape(cout * kh * kw, h * w))
        wflip = weight.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(cin, -1)
        return (wflip @ gcols).reshape(cin, h, w)

    def dx_scatter(g: np.ndarray) -> np.ndarray:
        dcols = (wmat.T @ g.reshape(cout, -1)).reshape(cin, kh, kw, hout, wout)
        dxp = np.zeros((cin, hp, wp))
        windows = _windows(dxp, kh, kw, stride, hout, wout)
        for i in range(kh):
            for j in range(kw):
                windows[:, i, j] += dcols[:, i, j]
        return dxp[:, padding:padding + h, padding:padding + w] if padding else dxp

    return _record(out.reshape(cout, hout, wout),
                   (bias, lambda g: g.reshape(cout, -1).sum(axis=1)),
                   (weight, lambda g: (g.reshape(cout, -1) @ cols.T).reshape(weight.shape)),
                   (x, dx_transposed if stride == 1 and padding < min(kh, kw) else dx_scatter))


def pool2d(x: Tensor, mode: str) -> Tensor:
    """Global pooling of a (C, H, W) map down to a (C,) vector."""
    if x.ndim != 3:
        raise ShapeError(f"pool2d expects (C,H,W), got shape {x.shape}")
    if mode not in ("max", "avg"):
        raise ValueError(f"pool2d mode must be 'max' or 'avg', got {mode!r}")
    c, h, w = x.shape
    flat = x.data.reshape(c, h * w)
    if mode == "avg":
        return _record(flat.mean(axis=1),
                       (x, lambda g: np.broadcast_to(g[:, None, None] / (h * w), x.shape).copy()))
    argmax = flat.argmax(axis=1)      # first max in row-major order

    def dmax(g: np.ndarray) -> np.ndarray:
        dflat = np.zeros_like(flat)
        dflat[np.arange(c), argmax] = g
        return dflat.reshape(x.shape)

    return _record(flat[np.arange(c), argmax], (x, dmax))


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
        return _record(np.repeat(np.repeat(x.data, 2, axis=1), 2, axis=2),
                       (x, lambda g: g.reshape(c, h, 2, w, 2).sum(axis=(2, 4))))
    if mode == "bilinear":
        lh = _bilinear_matrix(h)
        lw = _bilinear_matrix(w)
        return _record(np.einsum("ij,cjk,lk->cil", lh, x.data, lw, optimize=True),
                       (x, lambda g: np.einsum("ij,cil,lk->cjk", lh, g, lw, optimize=True)))
    raise ValueError(f"upsample2x mode must be 'nearest' or 'bilinear', got {mode!r}")


# ---------------------------------------------------------------------------
# verification

GRAD_CHECK_EPS = 1e-5   # central-difference step


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor) -> float:
    """Compare the taped gradient of scalar ``f`` at ``x`` to central differences.

    Returns the maximum elementwise relative error with denominator
    ``max(|analytic|, |numeric|, 1e-8)``.
    """
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
            bumped[i] = orig + sign * GRAD_CHECK_EPS
            val = f(Tensor(bumped.reshape(x.shape))).data
            if not np.isfinite(val).all():
                raise EvaluationError("grad_check target produced a non-finite value")
            nflat[i] += sign * float(val)
        nflat[i] /= 2.0 * GRAD_CHECK_EPS

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))
