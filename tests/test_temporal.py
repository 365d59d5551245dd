"""Memory bank behavior and attention-read invariants."""

import contextlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lesionseg import temporal
from lesionseg.autodiff import Tape, Tensor, grad_check, tsum
from lesionseg.errors import ShapeError, StateError
from lesionseg.temporal import CHUNK_SCORES, MemoryBank, attention_read, memory_read


def bank_of(rng, t, ck=2, cv=4, hw=3, capacity=0):
    bank = MemoryBank(capacity=capacity)
    for _ in range(t):
        bank.append(Tensor(rng.standard_normal((ck, hw, hw))),
                    Tensor(rng.standard_normal((cv, hw, hw))))
    return bank


def test_append_and_length():
    bank = bank_of(np.random.default_rng(0), 2)
    assert len(bank) == 2


def test_append_dim_mismatch():
    bank = bank_of(np.random.default_rng(0), 1)
    with pytest.raises(ShapeError):
        bank.append(Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((4, 4, 4))))


def test_eviction_keeps_first_frame():
    bank = MemoryBank(capacity=2)
    entries = [Tensor(np.full((1, 2, 2), float(i))) for i in range(3)]
    for e in entries:
        bank.append(e, e)
    assert len(bank) == 2
    assert (bank.keys[0].data == 0.0).all()   # pinned first
    assert (bank.keys[1].data == 2.0).all()   # newest survives, middle evicted
    with pytest.raises(ValueError, match="0 = unlimited"):
        MemoryBank(capacity=-1)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(capacity=st.integers(0, 8), appends=st.integers(1, 30))
def test_bank_keeps_the_first_entry_and_the_most_recent(capacity, appends):
    bank = MemoryBank(capacity=capacity)
    entries = []
    for k in range(1, appends + 1):
        entry = (Tensor(np.full((1, 2, 2), float(k))), Tensor(np.full((2, 2, 2), -float(k))))
        entries.append(entry)
        bank.append(*entry)
        if capacity == 0 or k <= capacity:
            survivors = entries
        else:
            survivors = entries[:1] + entries[k - (capacity - 1):]
        assert capacity == 0 or len(bank) <= capacity
        assert bank.keys[0] is entries[0][0] and bank.values[0] is entries[0][1]
        assert [(id(key), id(value)) for key, value in zip(bank.keys, bank.values)] == \
            [(id(key), id(value)) for key, value in survivors]


def test_empty_bank_read_rejected():
    with pytest.raises(StateError):
        memory_read(MemoryBank(), Tensor(np.zeros((2, 3, 3))))


def test_identical_keys_give_memory_mean():
    rng = np.random.default_rng(1)
    bank = MemoryBank()
    values = []
    for _ in range(2):
        v = rng.standard_normal((4, 3, 3))
        values.append(v)
        bank.append(Tensor(np.ones((2, 3, 3))), Tensor(v))
    y = memory_read(bank, Tensor(rng.standard_normal((2, 3, 3))))
    # all memory keys equal -> uniform attention -> mean value vector everywhere
    stacked = np.concatenate([v.reshape(4, -1) for v in values], axis=1)
    mean_vec = stacked.mean(axis=1)
    assert np.allclose(y.data, mean_vec[:, None, None], atol=1e-12)


def test_constant_values_pass_through():
    rng = np.random.default_rng(2)
    bank = MemoryBank()
    v = np.arange(4.0)
    for _ in range(3):
        bank.append(Tensor(rng.standard_normal((2, 3, 3))),
                    Tensor(np.tile(v[:, None, None], (1, 3, 3))))
    y = memory_read(bank, Tensor(rng.standard_normal((2, 3, 3))))
    assert np.allclose(y.data, v[:, None, None], atol=1e-12)


def test_saturated_query_selects_matching_value():
    # two memory entries with orthogonal one-hot keys at every position
    k1 = np.zeros((2, 2, 2)); k1[0] = 1.0
    k2 = np.zeros((2, 2, 2)); k2[1] = 1.0
    v1 = np.full((4, 2, 2), -3.0)
    v2 = np.full((4, 2, 2), 5.0)
    bank = MemoryBank()
    bank.append(Tensor(k1), Tensor(v1))
    bank.append(Tensor(k2), Tensor(v2))
    y = memory_read(bank, Tensor(100.0 * k2))
    assert np.allclose(y.data, 5.0, atol=1e-6)


def test_attention_invariants():
    rng = np.random.default_rng(3)
    for _ in range(10):
        t = int(rng.integers(1, 5))
        hw = int(rng.integers(2, 9))
        keys = [Tensor(rng.standard_normal((2, hw, hw))) for _ in range(t)]
        values = [Tensor(rng.standard_normal((4, hw, hw))) for _ in range(t)]
        query = Tensor(rng.standard_normal((2, hw, hw)))
        y, attn = attention_read(query, keys, values, return_attention=True)
        assert np.allclose(attn.data.sum(axis=1), 1.0, atol=1e-12)
        assert (attn.data >= 0.0).all()
        flat = np.concatenate([v.data.reshape(4, -1) for v in values], axis=1)
        lo = flat.min(axis=1)[:, None, None] - 1e-12
        hi = flat.max(axis=1)[:, None, None] + 1e-12
        assert (y.data >= lo).all() and (y.data <= hi).all()
        perm = list(rng.permutation(t))
        y2 = attention_read(query, [keys[i] for i in perm], [values[i] for i in perm])
        assert np.allclose(y.data, y2.data, atol=1e-12)


def test_attention_is_the_softmax_of_scores_scaled_by_root_key_width():
    rng = np.random.default_rng(4)
    keys = [Tensor(rng.standard_normal((8, 3, 3))) for _ in range(2)]
    values = [Tensor(rng.standard_normal((4, 3, 3))) for _ in range(2)]
    query = Tensor(rng.standard_normal((8, 3, 3)))
    _, attention = attention_read(query, keys, values, return_attention=True)
    scores = query.data.reshape(8, 9).T @ np.concatenate(
        [k.data.reshape(8, 9) for k in keys], axis=1) / np.sqrt(8)
    expect = np.exp(scores - scores.max(axis=1, keepdims=True))
    assert np.allclose(attention.data, expect / expect.sum(axis=1, keepdims=True),
                       rtol=0.0, atol=1e-12)


def test_memory_read_gradients():
    rng = np.random.default_rng(5)
    keys = [Tensor(rng.standard_normal((2, 2, 2))) for _ in range(2)]
    values = [Tensor(rng.standard_normal((4, 2, 2))) for _ in range(2)]
    query = rng.standard_normal((2, 2, 2))
    cases = [
        lambda q: tsum(attention_read(q, keys, values)),
        lambda k: tsum(attention_read(Tensor(query), [k, keys[1]], values)),
        lambda v: tsum(attention_read(Tensor(query), keys, [v, values[1]])),
    ]
    seeds = [query, keys[0].data.copy(), values[0].data.copy()]
    for f, x0 in zip(cases, seeds):
        assert grad_check(f, Tensor(x0, requires_grad=True)) < 1e-4


@pytest.mark.parametrize("taped", [False, True])
@pytest.mark.parametrize("t,value_shapes", [(0, []), (2, [(4, 3, 3)]),
                                            (2, [(4, 3, 3), (5, 3, 3)]),
                                            (1, [(4, 3, 2)])])
def test_mismatched_memory_rejected_on_both_paths(t, value_shapes, taped):
    query = Tensor(np.zeros((2, 3, 3)), requires_grad=taped)
    keys = [Tensor(np.zeros((2, 3, 3))) for _ in range(t)]
    values = [Tensor(np.zeros(shape)) for shape in value_shapes]
    with Tape(), pytest.raises(ShapeError):
        attention_read(query, keys, values)


def test_query_channel_mismatch_rejected():
    bank = bank_of(np.random.default_rng(6), 1, ck=2)
    with pytest.raises(ShapeError):
        memory_read(bank, Tensor(np.zeros((3, 3, 3))))


# -- the chunked untaped read ------------------------------------------------


def random_read(rng, t, h, w, ck=8, cv=32, magnitude=1.0):
    keys = [Tensor(magnitude * rng.standard_normal((ck, h, w))) for _ in range(t)]
    values = [Tensor(rng.standard_normal((cv, h, w))) for _ in range(t)]
    query = Tensor(magnitude * rng.standard_normal((ck, h, w)))
    return query, keys, values


def dense_read(query, keys, values):
    """The taped read, which always takes the dense Tensor path."""
    with Tape():
        return attention_read(Tensor(query.data, requires_grad=True), keys, values).data


def chunked_read(query, keys, values, under_tape):
    """The untaped read; a tape with no grad inputs records nothing either."""
    with Tape() if under_tape else contextlib.nullcontext():
        out = attention_read(query, keys, values)
    assert not out.requires_grad
    return out.data


def entries_per_chunk(h, w):
    return max(1, CHUNK_SCORES // (h * w) ** 2)


def assert_close_to_dense(query, keys, values, under_tape):
    out = chunked_read(query, keys, values, under_tape)
    dense = dense_read(query, keys, values)
    # every output is a convex combination of value vectors, so the largest
    # value magnitude is the scale of the rounding error
    scale = max(np.abs(v.data).max() for v in values)
    assert np.abs(out - dense).max() <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(t=st.integers(1, 40), h=st.integers(1, 20), w=st.integers(1, 20),
       widths=st.sampled_from([(2, 4), (8, 32)]), under_tape=st.booleans(),
       magnitude=st.floats(1e-3, 10.0), seed=st.integers(0, 2**32 - 1))
# the benchmark's read shape: key and value widths of the default model at
# 16x16 positions (128x128 frames), streamed over 2 and 24 entries
@example(t=2, h=16, w=16, widths=(8, 32), under_tape=False, magnitude=1.0, seed=0)
@example(t=24, h=16, w=16, widths=(8, 32), under_tape=True, magnitude=3.0, seed=1)
# reads that fit in one chunk: a whole chunk at 16x16 and 8x8, one entry
# short of it, a few entries at small and non-square maps, and one entry
# whose score block exceeds CHUNK_SCORES
@example(t=1, h=16, w=16, widths=(8, 32), under_tape=False, magnitude=1.0, seed=10)
@example(t=15, h=8, w=8, widths=(8, 32), under_tape=True, magnitude=1.0, seed=10)
@example(t=16, h=8, w=8, widths=(8, 32), under_tape=False, magnitude=1.0, seed=10)
@example(t=5, h=4, w=4, widths=(8, 32), under_tape=True, magnitude=1.0, seed=10)
@example(t=7, h=3, w=5, widths=(8, 32), under_tape=False, magnitude=1.0, seed=10)
@example(t=1, h=20, w=20, widths=(8, 32), under_tape=True, magnitude=1.0, seed=10)
# eval64's longest read: 14 entries at 8x8 positions (64x64 frames)
@example(t=14, h=8, w=8, widths=(8, 32), under_tape=False, magnitude=1.0, seed=10)
def test_chunked_read_matches_dense(t, h, w, widths, under_tape, magnitude, seed):
    ck, cv = widths
    query, keys, values = random_read(np.random.default_rng(seed), t, h, w, ck=ck, cv=cv,
                                      magnitude=magnitude)
    assert_close_to_dense(query, keys, values, under_tape)


@pytest.mark.parametrize("under_tape", [True, False])
def test_chunked_read_rescales_when_a_later_chunk_holds_the_row_max(under_tape):
    # positive query, the first entry's keys negative and entry 3's positive:
    # entry 3's scores exceed the first entry's column max by more than the
    # shift slack, and by more than 709, where exp overflows unless the
    # streamed read moves its shift up and rescales what it has summed
    rng = np.random.default_rng(11)
    keys = [Tensor(rng.uniform(-1.0, 1.0, (8, 16, 16))) for _ in range(6)]
    keys[0] = Tensor(-400.0 * rng.uniform(0.5, 1.0, (8, 16, 16)))
    keys[3] = Tensor(400.0 * rng.uniform(0.5, 1.0, (8, 16, 16)))
    values = [Tensor(rng.standard_normal((32, 16, 16))) for _ in range(6)]
    query = Tensor(rng.uniform(0.5, 1.0, (8, 16, 16)))
    assert entries_per_chunk(16, 16) == 1
    q = query.data.reshape(8, 256)
    first_max = (keys[0].data.reshape(8, 256).T @ q).max(axis=0) / np.sqrt(8)
    later_min = (keys[3].data.reshape(8, 256).T @ q).min(axis=0) / np.sqrt(8)
    assert (later_min - first_max).min() > max(temporal.SHIFT_SLACK, 709.0)
    out = chunked_read(query, keys, values, under_tape)
    assert np.isfinite(out).all()
    assert_close_to_dense(query, keys, values, under_tape)


def read_peak_bytes(t, side=16):
    query, keys, values = random_read(np.random.default_rng(12), t, side, side)
    tracemalloc.start()
    try:
        attention_read(query, keys, values)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_untaped_read_memory_does_not_grow_with_the_bank():
    # the dense read would hold a (256, t * 256) score matrix: 4 MB at t = 8
    # and 32 MB at t = 64, several times over
    assert read_peak_bytes(64) <= read_peak_bytes(8) + 256 * 1024


def test_a_short_read_takes_a_chunk_of_its_own_size():
    # at 1x1 positions a full chunk would hold 2^16 entries, a (9, 2^16) key
    # block of 4.5 MB, for a read over two
    assert read_peak_bytes(2, side=1) <= 16 * 1024


@pytest.fixture
def softmax_calls(monkeypatch):
    calls = []
    original = temporal.softmax_rows

    def counted(s):
        calls.append(s.shape)
        return original(s)

    monkeypatch.setattr(temporal, "softmax_rows", counted)
    return calls


def test_taped_read_with_grad_inputs_is_still_recorded(softmax_calls):
    query, keys, values = random_read(np.random.default_rng(13), 3, 16, 16)
    query = Tensor(query.data, requires_grad=True)
    with Tape() as tape:
        out = attention_read(query, keys, values)
    assert out.requires_grad and tape.nodes and softmax_calls
    tape.backward(out)   # seeds with ones
    assert query.grad is not None and np.abs(query.grad).max() > 0.0


def test_tape_without_grad_inputs_takes_the_chunked_path(softmax_calls):
    query, keys, values = random_read(np.random.default_rng(14), 3, 16, 16)
    with Tape() as tape:
        out = attention_read(query, keys, values)
    assert not out.requires_grad and not tape.nodes and not softmax_calls


def test_read_returning_attention_stays_dense(softmax_calls):
    query, keys, values = random_read(np.random.default_rng(15), 3, 16, 16)
    out, attention = attention_read(query, keys, values, return_attention=True)
    assert attention.shape == (256, 3 * 256)
    assert softmax_calls == [(256, 3 * 256)]
    assert out.data.tobytes() == dense_read(query, keys, values).tobytes()
