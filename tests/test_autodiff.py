import math
import re

import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lesionseg import autodiff, backbone
from lesionseg.autodiff import (
    Tape,
    Tensor,
    add,
    clamp,
    concat,
    conv2d,
    grad_check,
    linear,
    log,
    matmul,
    mul,
    neg,
    pool2d,
    relu,
    reshape,
    sigmoid,
    softmax_rows,
    sub,
    tmean,
    transpose,
    tsum,
    upsample2x,
    _record,
)
from lesionseg.config import RunConfig
from lesionseg.data import Clip
from lesionseg.errors import EvaluationError, ShapeError
from lesionseg.model import SegmentationModel
from lesionseg.synth import SynthConfig, synth_generate
from lesionseg.train import clip_loss, train


def rand(rng, *shape):
    return Tensor(rng.uniform(-1.0, 1.0, shape))


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal(matmul(a, b).data, b.data)

    def test_hand_expansion(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_zero_matrix(self):
        out = matmul(Tensor(np.zeros((2, 2))), Tensor([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(out.data, np.zeros((2, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    def test_associativity(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a, b, c = (rng.standard_normal((3, 3)) for _ in range(3))
            left = (a @ b) @ c
            right = a @ (b @ c)
            assert np.max(np.abs(left - right)) < 1e-10


class TestSoftmaxRows:
    def test_symmetry(self):
        out = softmax_rows(Tensor([[0.0, 0.0]]))
        assert np.allclose(out.data, [[0.5, 0.5]], atol=1e-15)

    def test_ln2_row(self):
        out = softmax_rows(Tensor([[math.log(2.0), 0.0]]))
        assert np.allclose(out.data, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-15)

    def test_stabilized_large_input(self):
        out = softmax_rows(Tensor([[10000.0, 0.0]]))
        assert np.isfinite(out.data).all()
        assert abs(out.data[0, 0] - 1.0) < 1e-12
        assert abs(out.data[0, 1]) < 1e-12

    def test_rows_sum_to_one_large_magnitude(self):
        rng = np.random.default_rng(3)
        s = Tensor(rng.uniform(-1e4, 1e4, (6, 9)))
        out = softmax_rows(s)
        assert np.max(np.abs(out.data.sum(axis=1) - 1.0)) < 1e-12

    def test_empty_row_dimension(self):
        with pytest.raises(ShapeError):
            softmax_rows(Tensor(np.zeros((2, 0))))


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rand(rng, 3, 5, 5)
        w = Tensor(np.ones((3, 3, 1, 1)) * np.eye(3)[:, :, None, None])
        out = conv2d(x, w, Tensor(np.zeros(3)))
        assert np.allclose(out.data, x.data, atol=1e-15)

    def test_window_sum(self):
        x = Tensor(np.ones((1, 3, 3)))
        w = Tensor(np.ones((1, 1, 3, 3)))
        out = conv2d(x, w, Tensor(np.zeros(1)))
        # padded by k // 2 = 1: corners see 4 ones, edges 6, the centre 9
        assert out.data.tolist() == [[[4.0, 6.0, 4.0], [6.0, 9.0, 6.0], [4.0, 6.0, 4.0]]]

    def test_zero_weights_give_bias(self):
        rng = np.random.default_rng(1)
        x = rand(rng, 2, 4, 4)
        w = Tensor(np.zeros((3, 2, 3, 3)))
        out = conv2d(x, w, Tensor([1.0, -2.0, 0.5]))
        for c, b in enumerate([1.0, -2.0, 0.5]):
            assert np.all(out.data[c] == b)

    def test_output_shape_formula(self):
        x = Tensor(np.zeros((1, 9, 7)))
        w = Tensor(np.zeros((2, 1, 3, 3)))
        out = conv2d(x, w, Tensor(np.zeros(2)), stride=2)
        assert out.shape == (2, (9 + 2 - 3) // 2 + 1, (7 + 2 - 3) // 2 + 1)

    def test_a_non_square_or_even_kernel_is_refused_naming_its_shape(self):
        x = Tensor(np.zeros((1, 6, 6)))
        for shape in ((1, 1, 3, 1), (1, 1, 2, 2)):
            with pytest.raises(ShapeError, match=re.escape(f"got {shape}")):
                conv2d(x, Tensor(np.zeros(shape)), Tensor(np.zeros(1)))


def reference_conv2d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1,
                     padding: int = 0) -> Tensor:
    """The earlier conv2d: np.pad, then sliding_window_view, then a 5-d
    transpose into the column matrix. The parity oracle for conv2d."""
    cin, h, w = x.shape
    cout, _, kh, kw = weight.shape
    hp, wp = h + 2 * padding, w + 2 * padding
    hout = (hp - kh) // stride + 1
    wout = (wp - kw) // stride + 1
    xp = np.pad(x.data, ((0, 0), (padding, padding), (padding, padding))) if padding else x.data
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    windows = windows[:, ::stride, ::stride]
    cols = np.ascontiguousarray(
        windows.transpose(0, 3, 4, 1, 2).reshape(cin * kh * kw, hout * wout))
    wmat = weight.data.reshape(cout, cin * kh * kw)
    out = (wmat @ cols + bias.data[:, None]).reshape(cout, hout, wout)

    def dx(g: np.ndarray) -> np.ndarray:
        dcols = (wmat.T @ g.reshape(cout, hout * wout)).reshape(cin, kh, kw, hout, wout)
        dxp = np.zeros((cin, hp, wp))
        for i in range(kh):
            for j in range(kw):
                dxp[:, i:i + stride * hout:stride, j:j + stride * wout:stride] += dcols[:, i, j]
        if padding:
            dxp = dxp[:, padding:padding + h, padding:padding + w]
        return dxp

    return _record(out,
                   (bias, lambda g: g.reshape(cout, hout * wout).sum(axis=1)),
                   (weight,
                    lambda g: (g.reshape(cout, hout * wout) @ cols.T).reshape(weight.shape)),
                   (x, dx))


def same_padded_reference(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1) -> Tensor:
    """The oracle at the padding conv2d derives from the kernel: k // 2."""
    return reference_conv2d(x, weight, bias, stride, padding=weight.shape[-1] // 2)


def conv_and_grads(conv, x, w, b, stride, upstream):
    """Forward output and the x, weight and bias grads for one upstream grad."""
    xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
    with Tape() as tape:
        out = conv(xt, wt, bt, stride=stride)
        tape.backward(tsum(mul(out, Tensor(upstream))))   # out's grad is 1.0 * upstream: exact
    return out.data, xt.grad, wt.grad, bt.grad


@settings(max_examples=150, deadline=None, derandomize=True)
@given(c=st.integers(1, 6), h=st.integers(1, 12), w=st.integers(1, 12),
       cout=st.integers(1, 4), k=st.sampled_from((1, 3, 5)), stride=st.sampled_from((1, 2, 3)),
       transposed=st.booleans(), seed=st.integers(0, 2**32 - 1))
# the first two leave a remainder: (H - 1) % stride != 0
@example(c=2, h=10, w=7, cout=3, k=3, stride=2, transposed=False, seed=0)
@example(c=3, h=9, w=11, cout=2, k=3, stride=3, transposed=True, seed=1)
@example(c=1, h=1, w=1, cout=1, k=5, stride=3, transposed=True, seed=2)
# stride 1: a 3x3 conv, then a 1x1 head
@example(c=2, h=6, w=5, cout=3, k=3, stride=1, transposed=True, seed=3)
@example(c=3, h=5, w=7, cout=2, k=1, stride=1, transposed=True, seed=5)
# the strided 1x1 coarse taps of --encoder-tap 3 and 2, padded by 0
@example(c=8, h=8, w=8, cout=4, k=1, stride=2, transposed=False, seed=6)
@example(c=4, h=9, w=7, cout=3, k=1, stride=4, transposed=True, seed=7)
def test_conv2d_agrees_with_the_reference(c, h, w, cout, k, stride, transposed, seed):
    """The bias grad, and everything off the tap path (stride > 1), is
    bitwise that of the reference padded by k // 2. The tap path sums its
    output, weight grad and x grad in another order, and they agree to
    1e-12 of their largest entry; a 1x1 conv is one GEMM of the same
    operands, so its output and weight grad are bitwise the reference's
    too."""
    rng = np.random.default_rng(seed)
    # a transposed view is a (C, H, W) map that is not C-contiguous
    x = (rng.standard_normal((c, w, h)).transpose(0, 2, 1) if transposed
         else rng.standard_normal((c, h, w)))
    weight = rng.standard_normal((cout, c, k, k))
    bias = rng.standard_normal(cout)
    upstream = rng.standard_normal((cout, (h - 1) // stride + 1, (w - 1) // stride + 1))
    got = conv_and_grads(conv2d, x, weight, bias, stride, upstream)
    want = conv_and_grads(same_padded_reference, x, weight, bias, stride, upstream)
    names = ("output", "x grad", "weight grad", "bias grad")
    if stride > 1:
        bitwise = names
    elif k == 1:
        bitwise = ("output", "weight grad", "bias grad")
    else:
        bitwise = ("bias grad",)
    for name, a, b in zip(names, got, want):
        assert a.shape == b.shape, name
        if name in bitwise:
            assert a.tobytes() == b.tobytes(), name
        else:
            assert np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(b).max()), name


def test_training_agrees_with_the_reference_conv(monkeypatch):
    """Three steps with the reference conv: stride-1 outputs, weight grads
    and x grads sum their taps in another order and round differently, so
    losses agree to 1e-12 relative and parameters closely; bitwise
    repeatability of conv2d itself is pinned by test_train and test_blas."""
    synth = SynthConfig(resolution=32, frames=4, axes=(6.0, 4.0), distractors=0)
    seqs = [dataclasses.replace(synth_generate(synth, s), name=f"seq{s}") for s in range(2)]
    cfg = RunConfig(steps=3)
    got = train(cfg, seqs)
    monkeypatch.setattr(backbone, "conv2d", same_padded_reference)
    want = train(cfg, seqs)
    assert len(got.losses) == len(want.losses)
    for a, b in zip(got.losses, want.losses):
        assert abs(a - b) <= 1e-12 * abs(b)
    want_params = want.model.parameters()
    for name, p in got.model.parameters().items():
        np.testing.assert_allclose(p.data, want_params[name].data, rtol=1e-9, atol=1e-12,
                                   err_msg=name)


class TestPool2d:
    def test_constant_channel(self):
        x = Tensor(np.full((2, 3, 3), 4.25))
        assert np.all(pool2d(x, "max").data == 4.25)
        assert np.all(pool2d(x, "avg").data == 4.25)

    def test_enumerated(self):
        x = Tensor([[[1.0, 2.0], [3.0, 4.0]]])
        assert pool2d(x, "max").data.tolist() == [4.0]
        assert pool2d(x, "avg").data.tolist() == [2.5]

    def test_single_pixel(self):
        x = Tensor([[[-7.5]]])
        assert pool2d(x, "max").data.tolist() == [-7.5]
        assert pool2d(x, "avg").data.tolist() == [-7.5]

    def test_max_tie_routes_to_first(self):
        x = Tensor([[[2.0, 2.0], [2.0, 1.0]]], requires_grad=True)
        with Tape() as tape:
            out = tsum(pool2d(x, "max"))
        tape.backward(out)
        assert x.grad.tolist() == [[[1.0, 0.0], [0.0, 0.0]]]


class TestUpsample:
    def test_nearest_values(self):
        x = Tensor([[[1.0, 2.0], [3.0, 4.0]]])
        out = upsample2x(x, "nearest")
        assert out.data[0].tolist() == [
            [1.0, 1.0, 2.0, 2.0],
            [1.0, 1.0, 2.0, 2.0],
            [3.0, 3.0, 4.0, 4.0],
            [3.0, 3.0, 4.0, 4.0],
        ]

    def test_bilinear_constant_preserved(self):
        x = Tensor(np.full((3, 4, 4), 0.7))
        out = upsample2x(x, "bilinear")
        assert out.shape == (3, 8, 8)
        assert np.allclose(out.data, 0.7, atol=1e-15)


class TestGradCheck:
    def test_linear_function(self):
        x = Tensor(np.arange(6, dtype=float).reshape(2, 3))
        assert grad_check(tsum, x) < 1e-10

    def test_quadratic(self):
        x = Tensor([1.0, 2.0])
        err = grad_check(lambda t: tsum(mul(t, t)), x)
        assert err < 1e-6

    def test_composed_network(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.standard_normal((4, 8, 8)) * 0.5)
        w = Tensor(rng.standard_normal((2, 4, 3, 3)) * 0.3)
        b = Tensor(np.zeros(2))
        lw = Tensor(rng.standard_normal((1, 2)) * 0.5)
        lb = Tensor(np.zeros(1))

        def f(t):
            h = relu(conv2d(t, w, b))
            pooled = pool2d(h, "avg")
            return tsum(linear(pooled, lw, lb))

        assert grad_check(x=x, f=f) < 1e-4

    def test_rejects_nonfinite(self):
        with pytest.raises(EvaluationError):
            grad_check(lambda t: log(t), Tensor([-1.0]))


def op_cases(rng):
    """(name, f, x) triples covering every differentiable operation."""
    c, h, w = 3, 4, 4
    conv_w = Tensor(rng.standard_normal((2, c, 3, 3)) * 0.4)
    conv_b = Tensor(rng.standard_normal(2) * 0.1)
    lin_w = Tensor(rng.standard_normal((3, 5)) * 0.4)
    lin_b = Tensor(rng.standard_normal(3) * 0.1)
    other = Tensor(rng.standard_normal((c, h, w)))
    vec = Tensor(rng.standard_normal((c, 1, 1)))
    mat = Tensor(rng.standard_normal((4, 3)))
    # weighting tensors make the scalar target sensitive to every output element
    soft_wt = Tensor(rng.standard_normal((3, 6)))
    cat_wt = Tensor(rng.standard_normal((2 * c, h, w)))
    up_wt = Tensor(rng.standard_normal((c, 2 * h, 2 * w)))
    tr_wt = Tensor(rng.standard_normal((h * w, c)))

    cases = [
        ("matmul", lambda t: tsum(matmul(t, mat)), rand(rng, 5, 4)),
        ("softmax_rows", lambda t: tsum(mul(softmax_rows(t), soft_wt)), rand(rng, 3, 6)),
        ("conv2d_input", lambda t: tsum(conv2d(t, conv_w, conv_b, stride=2)),
         rand(rng, c, h, w)),
        ("conv2d_weight", lambda t: tsum(conv2d(other, t, conv_b)),
         Tensor(conv_w.data.copy())),
        ("conv2d_bias", lambda t: tsum(conv2d(other, conv_w, t)), Tensor(conv_b.data.copy())),
        ("pool_max", lambda t: tsum(pool2d(t, "max")), rand(rng, c, h, w)),
        ("pool_avg", lambda t: tsum(pool2d(t, "avg")), rand(rng, c, h, w)),
        ("relu", lambda t: tsum(relu(t)), rand(rng, c, h, w)),
        ("sigmoid", lambda t: tsum(sigmoid(t)), rand(rng, c, h, w)),
        ("add_broadcast", lambda t: tsum(t + vec), rand(rng, c, h, w)),
        ("mul_broadcast", lambda t: tsum(mul(t, vec)), rand(rng, c, h, w)),
        ("concat", lambda t: tsum(mul(concat([t, other], axis=0), cat_wt)), rand(rng, c, h, w)),
        ("linear", lambda t: tsum(linear(t, lin_w, lin_b)), rand(rng, 5)),
        ("upsample_nearest", lambda t: tsum(mul(upsample2x(t, "nearest"), up_wt)),
         rand(rng, c, h, w)),
        ("upsample_bilinear", lambda t: tsum(mul(upsample2x(t, "bilinear"), up_wt)),
         rand(rng, c, h, w)),
        ("log", lambda t: tsum(log(t)), Tensor(rng.uniform(0.2, 2.0, (4, 4)))),
        ("clamp", lambda t: tsum(clamp(t, -0.5, 0.5)), rand(rng, 8)),
        ("mean", tmean, rand(rng, c, h, w)),
        ("reshape_transpose", lambda t: tsum(mul(transpose(reshape(t, (c, h * w))), tr_wt)),
         rand(rng, c, h, w)),
    ]

    def stride1_input_case(k):
        weight = Tensor(rng.standard_normal((2, c, k, k)) * 0.4)
        out_wt = Tensor(rng.standard_normal((2, h, w)))
        return (f"conv2d_input_{k}x{k}",
                lambda t: tsum(mul(conv2d(t, weight, conv_b), out_wt)),
                rand(rng, c, h, w))

    # stride-1 input grads are the transposed conv, which pads the output
    # gradient by k // 2 as the forward pads the input
    return cases + [stride1_input_case(k) for k in (1, 3, 5)]


@pytest.mark.parametrize("seed", range(5))
def test_every_op_grad_checks(seed):
    rng = np.random.default_rng(100 + seed)
    for name, f, x in op_cases(rng):
        err = grad_check(f, x)
        assert err < 1e-4, f"{name}: max relative error {err:.3e}"


OPERAND_SHAPES = {   # every differentiable op, and the shapes of its operands
    "add": (add, [(3, 4), (3, 1)]),
    "sub": (sub, [(3, 4), (3, 1)]),
    "mul": (mul, [(3, 4), (3, 1)]),
    "neg": (neg, [(3,)]),
    "relu": (relu, [(3,)]),
    "sigmoid": (sigmoid, [(3,)]),
    "log": (log, [(3,)]),
    "clamp": (lambda t: clamp(t, 0.8, 1.5), [(3,)]),
    "tsum": (tsum, [(3,)]),
    "tmean": (tmean, [(3,)]),
    "reshape": (lambda t: reshape(t, (6,)), [(2, 3)]),
    "transpose": (transpose, [(2, 3)]),
    "concat": (lambda *ts: concat(ts, axis=1), [(2, 3), (2, 1), (2, 2)]),
    "matmul": (matmul, [(2, 3), (3, 4)]),
    "linear": (linear, [(3,), (2, 3), (2,)]),
    "softmax_rows": (softmax_rows, [(2, 3)]),
    "conv2d": (lambda x, w, b: conv2d(x, w, b, stride=2),
               [(2, 5, 5), (3, 2, 3, 3), (3,)]),
    "pool_max": (lambda t: pool2d(t, "max"), [(2, 3, 3)]),
    "pool_avg": (lambda t: pool2d(t, "avg"), [(2, 3, 3)]),
    "upsample_nearest": (lambda t: upsample2x(t, "nearest"), [(2, 3, 3)]),
    "upsample_bilinear": (lambda t: upsample2x(t, "bilinear"), [(2, 3, 3)]),
}


@pytest.mark.parametrize("name", OPERAND_SHAPES)
def test_a_constant_operand_gets_no_grad(name):
    op, shapes = OPERAND_SHAPES[name]
    rng = np.random.default_rng(4)
    arrays = [rng.uniform(0.5, 2.0, shape) for shape in shapes]   # positive, for log
    for const in range(len(arrays)):
        ts = [Tensor(a, requires_grad=i != const) for i, a in enumerate(arrays)]
        anchor = Tensor(1.0, requires_grad=True)   # keeps the root taped
        with Tape() as tape:
            out = mul(tsum(op(*ts)), anchor)
        tape.backward(out)
        assert ts[const].grad is None, const
        assert all(t.grad is not None for t in ts if t.requires_grad), const


@pytest.mark.parametrize("x_requires_grad", [False, True])
@pytest.mark.parametrize("stride, dx_work", [(1, "_tap_sum"), (2, "_scatter_columns")],
                         ids=["stride1", "stride2"])
def test_a_constant_conv_input_costs_no_dx_work(monkeypatch, stride, dx_work, x_requires_grad):
    """In the backward pass, only the x grad calls `dx_work`: the tap sum
    at stride 1, the column scatter at stride 2."""
    rng = np.random.default_rng(6)
    x = Tensor(rng.standard_normal((2, 5, 5)), requires_grad=x_requires_grad)
    w = Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(3), requires_grad=True)
    with Tape() as tape:
        out = tsum(conv2d(x, w, b, stride=stride))
    calls = []
    monkeypatch.setattr(autodiff, dx_work,
                        lambda *args, inner=getattr(autodiff, dx_work):
                        calls.append(args) or inner(*args))
    tape.backward(out)
    assert bool(calls) == x_requires_grad
    assert (x.grad is not None) == x_requires_grad and w.grad is not None and b.grad is not None


def test_a_stride1_conv_holds_no_column_matrix():
    """A 3x3 stride-1 conv pads its input once and copies it into no
    column matrix: untaped, its peak stays under 4x the input's bytes;
    taped, it keeps its output (1x here) and no buffer of its own once
    its forward is done (an im2col conv peaked at 11x and kept 10x; the
    conv that kept its padded input and taps kept 2.02x)."""
    rng = np.random.default_rng(8)
    x = Tensor(rng.standard_normal((16, 256, 256)), requires_grad=True)
    w = Tensor(rng.standard_normal((16, 16, 3, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(16), requires_grad=True)
    tracemalloc.start()
    try:
        conv2d(x, w, b)
        untaped_peak = tracemalloc.get_traced_memory()[1]
        before = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:
            out = conv2d(x, w, b)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(tape.nodes) == 1 and out.requires_grad
    assert untaped_peak < 4 * x.data.nbytes
    assert kept < 1.05 * x.data.nbytes


def test_a_taped_stride2_conv_keeps_only_its_output():
    """A stride-2 conv's weight VJP rebuilds the column matrix from x, so
    the taped conv keeps its output (0.5x the input's bytes here) and not
    the columns ((3/2)^2 = 2.25x; it kept 2.75x with them)."""
    rng = np.random.default_rng(9)
    x = Tensor(rng.standard_normal((16, 128, 128)), requires_grad=True)
    w = Tensor(rng.standard_normal((32, 16, 3, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(32), requires_grad=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:
            out = conv2d(x, w, b, stride=2)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(tape.nodes) == 1 and out.data.nbytes == x.data.nbytes // 2
    assert kept < 0.55 * x.data.nbytes


def test_tape_replays_each_node_once():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        a = x + x
        b = mul(a, x)
        out = tsum(b)
    calls = []
    for node in tape.nodes:
        original = node.backward
        node.backward = (lambda orig, n: lambda g: (calls.append(id(n)), orig(g)))(original, node)
    tape.backward(out)
    assert len(calls) == len(tape.nodes)
    assert len(set(calls)) == len(tape.nodes)


def test_backward_releases_what_it_replayed():
    """After backward no node holds an output or a closure, so an
    intermediate dies once the caller drops it; the node count and the
    leaf gradients stay."""
    x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    w = Tensor(2.0, requires_grad=True)
    with Tape() as tape:
        mid = mul(x, w)
        out = tsum(relu(mid))
    alive = weakref.ref(mid)
    nodes = len(tape.nodes)
    tape.backward(out)
    assert len(tape.nodes) == nodes == 3
    assert x.grad.tolist() == [2.0, 0.0, 2.0] and float(w.grad) == 4.0
    assert mid.grad is None and out.grad is None
    del mid
    assert alive() is None


def test_a_replayed_tape_refuses_a_second_backward():
    """A second replay would add every gradient again (x^2 at 2: 4, then 12)."""
    x = Tensor(2.0, requires_grad=True)
    with Tape() as tape:
        out = mul(x, x)
    tape.backward(out)
    with pytest.raises(ValueError, match="already replayed"):
        tape.backward(out)
    assert float(x.grad) == 4.0


def test_a_training_step_backward_holds_no_more_than_its_forward():
    """Backward frees each node's closure and output gradient as it
    passes them, so one 64x64 clip's backward peaks under 10% above the
    bytes alive when its forward ends (each node kept both until the
    step ended: 1.46x)."""
    seq = synth_generate(SynthConfig(resolution=64, frames=3), 0)
    clip = Clip(frames=tuple(seq.frames), masks=tuple(seq.masks), sequence="s", start=0)
    model = SegmentationModel(RunConfig(), seed=0)
    tracemalloc.start()
    try:
        with Tape() as tape:
            loss, _ = clip_loss(model, clip)
        forward_live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        tape.backward(loss)
        backward_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(p.grad is not None for p in model.parameters().values())
    assert backward_peak < 1.1 * forward_live


def test_gradient_accumulates_across_reuse():
    x = Tensor([2.0], requires_grad=True)
    with Tape() as tape:
        out = tsum(mul(x, x) + x)   # d/dx (x^2 + x) = 2x + 1
    tape.backward(out)
    assert np.allclose(x.grad, [5.0])


def test_no_tape_means_no_recording():
    x = Tensor([1.0], requires_grad=True)
    y = x + x
    assert not y.requires_grad
    assert y.grad is None


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_forward_outputs_finite(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.uniform(-100.0, 100.0, (3, 6, 6)))
    w = Tensor(rng.uniform(-100.0, 100.0, (2, 3, 3, 3)))
    outs = [
        conv2d(x, w, Tensor(rng.uniform(-100, 100, 2))).data,
        softmax_rows(Tensor(rng.uniform(-100, 100, (4, 5)))).data,
        sigmoid(x).data,
        relu(x).data,
        pool2d(x, "max").data,
        pool2d(x, "avg").data,
        upsample2x(x, "bilinear").data,
    ]
    for out in outs:
        assert np.isfinite(out).all()
