"""The GLU over chunks of samples, and the pointwise conv pieces it rests
on, against the whole-batch code they replaced.

``oracles.glu_forward_whole_batch_ref`` and ``glu_backward_whole_batch_ref``
are the GLU as it was when each pass ran once over the whole batch, and
``conv1x1_forward_broadcast_bias_ref`` and
``conv1x1_backward_whole_batch_ref`` the pointwise conv as it was when the
bias was a broadcast add and gb was ``gy.sum(axis=(0, 2, 3))``. Every GLU
stage works per sample and the chunked weight gradients continue their
sums sample after sample, so every output is compared on raw bytes and
dtype. A guard fails if the GLU goes back to whole-batch calls.
"""

import numpy as np
import pytest

from atconv import micro
from atconv.micro import GluParams, glu_backward, glu_forward
from atconv.primitives import conv1x1_backward, conv1x1_forward, gelu_output
from atconv.rng import Rng
from atconv.tensor import BLOCK, block_ranges
from oracles import (conv1x1_backward_whole_batch_ref, conv1x1_forward_broadcast_bias_ref,
                     glu_backward_whole_batch_ref, glu_forward_whole_batch_ref)

F32, F64 = np.float32, np.float64
# (x dtype, gy dtype): plain f32 and f64, and an f64 gradient on f32 input
DTYPES = ((F32, F32), (F64, F64), (F32, F64))
C, E, HW = 32, 128, (7, 7)
# samples per chunk at the acceptance config's GLU: 2^16 // (128 * 49)
CHUNK = BLOCK // (E * HW[0] * HW[1])


def same(got, ref):
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


def same_grads(grads, ref_grads):
    assert grads.keys() == ref_grads.keys()
    for name in grads:
        same(grads[name], ref_grads[name])


def test_the_acceptance_chunk_is_ten_samples():
    assert CHUNK == 10


def _chunk_sizes(monkeypatch, shape, e):
    """The sample counts of the chunks ``glu_forward`` runs over, read
    from its pointwise convs, three to a chunk."""
    seen = []

    def spy(xs, w, bias=None, out=None):
        seen.append(xs.shape[0])
        return conv1x1_forward(xs, w, bias, out)

    monkeypatch.setattr(micro, "conv1x1_forward", spy)
    rng = Rng(sum(shape))
    glu_forward(rng.normal(0, 1, shape, F32), GluParams.init(rng, shape[1], e // shape[1], F32))
    assert seen[0::3] == seen[1::3] == seen[2::3]
    return seen[0::3]


@pytest.mark.parametrize("b_", (1, 9, 10, 11, 32, 45, 64, 256))
def test_chunks_cover_the_batch_in_near_equal_runs(b_, monkeypatch):
    sizes = _chunk_sizes(monkeypatch, (b_, C) + HW, E)
    assert sum(sizes) == b_
    assert max(sizes) <= CHUNK and max(sizes) - min(sizes) <= 1
    assert len(sizes) == -(-b_ // CHUNK)


def test_a_sample_wider_than_the_block_is_a_chunk_of_its_own(monkeypatch):
    # E=32 at 46x46: one sample's hidden map is 67712 elements
    assert 32 * 46 * 46 > BLOCK
    assert _chunk_sizes(monkeypatch, (3, 8, 46, 46), 32) == [1, 1, 1]


def _glu_pair(shape, dtypes, seed):
    xdt, gdt = dtypes
    rng = Rng(seed)
    p = GluParams.init(rng, shape[1], 4, xdt)
    x = rng.normal(0, 1, shape, xdt)
    gy = rng.normal(0, 1, shape, gdt)
    return p, x, gy


# one sample, one chunk short, one chunk, one over, and 3c + 2 (ragged);
# an odd shape whose chunk is 4 samples, in one chunk and in four
GLU_SHAPES = tuple((b_, C) + HW for b_ in (1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 2))
GLU_SHAPES += ((3, 24, 11, 13), (13, 24, 11, 13))


@pytest.mark.parametrize("dtypes", DTYPES)
@pytest.mark.parametrize("shape", GLU_SHAPES)
def test_glu_matches_the_whole_batch_pair(shape, dtypes):
    p, x, gy = _glu_pair(shape, dtypes, sum(shape))
    y, cache = glu_forward(x, p)
    ref_y, ref_cache = glu_forward_whole_batch_ref(x, p)
    same(y, ref_y)
    same(cache.cdf, ref_cache.cdf)
    for got, ref in ((cache.ca, ref_cache.ca), (cache.cb, ref_cache.cb)):
        same(got.x, ref.x)
        same(got.w, ref.w)
        same(got.bias, ref.bias)
    gx, grads = glu_backward(gy, cache)
    ref_gx, ref_grads = glu_backward_whole_batch_ref(gy, ref_cache)
    same(gx, ref_gx)
    same_grads(grads, ref_grads)


@pytest.mark.parametrize("dtypes", DTYPES)
def test_glu_with_float64_weights_on_float32_input(dtypes):
    # the weights are cast to x's dtype chunk by chunk; the cache keeps
    # the cast copies, as the whole-batch forward did
    _, x, gy = _glu_pair((CHUNK + 3, C) + HW, dtypes, 71)
    p = GluParams.init(Rng(72), C, 4, F64)
    y, cache = glu_forward(x, p)
    ref_y, ref_cache = glu_forward_whole_batch_ref(x, p)
    same(y, ref_y)
    assert cache.ca.w.dtype == x.dtype
    gx, grads = glu_backward(gy, cache)
    ref_gx, ref_grads = glu_backward_whole_batch_ref(gy, ref_cache)
    same(gx, ref_gx)
    same_grads(grads, ref_grads)


def test_glu_backward_on_a_non_contiguous_gradient():
    p, x, gy = _glu_pair((CHUNK + 2, C) + HW, (F32, F32), 73)
    gy_t = np.ascontiguousarray(gy.transpose(0, 1, 3, 2)).transpose(0, 1, 3, 2)
    assert not gy_t.flags.c_contiguous
    _, cache = glu_forward(x, p)
    gx, grads = glu_backward(gy_t, cache)
    ref_gx, ref_grads = glu_backward_whole_batch_ref(gy, glu_forward_whole_batch_ref(x, p)[1])
    same(gx, ref_gx)
    same_grads(grads, ref_grads)


@pytest.mark.parametrize("dtypes", DTYPES)
def test_glu_backward_on_a_broadcast_gradient(dtypes):
    # the head's cotangent reaches the last block's GLU as a read-only view
    # that repeats each sample's per-channel value over the pixels; each
    # chunk copies its own slice of it
    p, x, _ = _glu_pair((3 * CHUNK + 2, C) + HW, dtypes, 75)
    g = Rng(76).normal(0, 1, (3 * CHUNK + 2, C, 1, 1), dtypes[1])
    gy = np.broadcast_to(g, x.shape)
    assert not gy.flags.writeable
    _, cache = glu_forward(x, p)
    gx, grads = glu_backward(gy, cache)
    ref_cache = glu_forward_whole_batch_ref(x, p)[1]
    ref_gx, ref_grads = glu_backward_whole_batch_ref(np.ascontiguousarray(gy), ref_cache)
    same(gx, ref_gx)
    same_grads(grads, ref_grads)


def test_glu_backward_builds_one_gate_per_chunk(monkeypatch):
    # the gate was built twice per chunk: once for W_c's input h = gate * a
    # and again for W_a's cotangent
    built = []

    def spy(cache):
        built.append(cache.x.shape[0])
        return gelu_output(cache)

    monkeypatch.setattr(micro, "gelu_output", spy)
    p, x, gy = _glu_pair((64, C) + HW, (F32, F32), 77)
    _, cache = glu_forward(x, p)
    assert built == []  # the forward's GELU keeps its own output
    glu_backward(gy, cache)
    assert built == [hi - lo for lo, hi in block_ranges(64, E * HW[0] * HW[1])]
    assert len(built) == 7


def test_no_pointwise_conv_in_the_glu_sees_more_than_one_chunk(monkeypatch):
    # the guard against a return to whole-batch calls: at B=64 each of the
    # 7 chunks runs three convs forward, and two rebuilds and three
    # backwards in the backward, none over more than CHUNK samples
    seen = []

    def spy(fn):
        def wrapped(*args, **kwargs):
            seen.append((fn.__name__, args[0].shape[0]))
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(micro, "conv1x1_forward", spy(conv1x1_forward))
    monkeypatch.setattr(micro, "conv1x1_backward", spy(conv1x1_backward))
    p, x, gy = _glu_pair((64, C) + HW, (F32, F32), 74)
    _, cache = glu_forward(x, p)
    forward = list(seen)
    glu_backward(gy, cache)
    backward = seen[len(forward):]
    chunks = -(-64 // CHUNK)
    assert chunks == 7
    assert [name for name, _ in forward] == ["conv1x1_forward"] * 3 * chunks
    assert [name for name, _ in backward].count("conv1x1_forward") == 2 * chunks
    assert [name for name, _ in backward].count("conv1x1_backward") == 3 * chunks
    assert max(b_ for _, b_ in seen) <= CHUNK
    assert sum(b_ for _, b_ in forward) == 3 * 64


# ----------------------------------------------------------------------
# conv1x1: the bias add as one repeated row, and continued gw and gb
# ----------------------------------------------------------------------

# the GLU's hidden map, its larger evaluation batch, the operator's map at
# H32, one sample of it (the broadcast add) and a small odd one
BIAS_SHAPES = (((64, 128, 7, 7), 32), ((256, 128, 7, 7), 32), ((8, 64, 32, 32), 64),
               ((1, 64, 32, 32), 64), ((3, 5, 11, 13), 7))


@pytest.mark.parametrize("dtypes", ((F32, F32), (F64, F64), (F32, F64)))
@pytest.mark.parametrize("shape, c_in", BIAS_SHAPES)
def test_conv1x1_forward_matches_the_broadcast_bias_add(shape, c_in, dtypes):
    xdt, wdt = dtypes
    rng = Rng(sum(shape) + c_in)
    x = rng.normal(0, 1, (shape[0], c_in) + shape[2:], xdt)
    w = rng.normal(0, 1, (shape[1], c_in), wdt)
    bias = rng.normal(0, 1, shape[1], wdt)
    for b in (bias, None):
        y, cache = conv1x1_forward(x, w, b)
        ref_y, ref_cache = conv1x1_forward_broadcast_bias_ref(x, w, b)
        same(y, ref_y)
        assert y.flags.c_contiguous
        same(cache.w, ref_cache.w)


def _chunked_backward(gy, cache, bounds):
    """conv1x1_backward over consecutive chunks, each continuing the last
    one's gw and gb; gx is stacked."""
    gw = gb = None
    gxs = []
    for lo, hi in zip(bounds, bounds[1:]):
        gx, gw, gb = conv1x1_backward(gy[lo:hi], cache._replace(x=cache.x[lo:hi]), gw, gb)
        gxs.append(gx)
    return np.concatenate(gxs), gw, gb


CONV_SHAPES = ((45, 32, 128, 7, 7), (64, 128, 32, 7, 7), (7, 7, 5, 11, 13), (5, 3, 4, 1, 1))


@pytest.mark.parametrize("dtypes", DTYPES)
@pytest.mark.parametrize("shape", CONV_SHAPES)
def test_conv1x1_backward_continued_over_chunks_is_one_call(shape, dtypes):
    xdt, gdt = dtypes
    b_, c_in, c_out, h_, w_ = shape
    rng = Rng(sum(shape))
    x = rng.normal(0, 1, (b_, c_in, h_, w_), xdt)
    gy = rng.normal(0, 1, (b_, c_out, h_, w_), gdt)
    _, cache = conv1x1_forward(x, rng.normal(0, 1, (c_out, c_in), xdt),
                               rng.normal(0, 1, c_out, xdt))
    ref = conv1x1_backward_whole_batch_ref(gy, cache)
    for got in (conv1x1_backward(gy, cache),
                _chunked_backward(gy, cache, (0, 1, b_)),
                _chunked_backward(gy, cache, (0, b_ // 3, b_ // 2, b_ - 1, b_))):
        for g, r in zip(got, ref):
            same(g, r)


@pytest.mark.parametrize("pixels", ((2, 2), (1, 1), (3, 5)))
@pytest.mark.parametrize("dtype", (F32, F64))
def test_conv1x1_gb_of_negative_zero_sums(dtype, pixels):
    # channel 0's gy is -0 everywhere and channel 1's -0 or +0 by sample:
    # every exact per-sample sum is -0. The reductions start from +0, so
    # the whole-batch sum and the continued one both end +0
    rng = Rng(75)
    x = rng.normal(0, 1, (6, 3) + pixels, dtype)
    gy = rng.normal(0, 1, (6, 4) + pixels, dtype)
    gy[:, 0] = -0.0
    gy[::2, 1] = -0.0
    gy[1::2, 1] = 0.0
    _, cache = conv1x1_forward(x, rng.normal(0, 1, (4, 3), dtype), np.zeros(4, dtype))
    ref_gb = conv1x1_backward_whole_batch_ref(gy, cache)[2]
    for got in (conv1x1_backward(gy, cache), _chunked_backward(gy, cache, (0, 1, 4, 6))):
        same(got[2], ref_gb)
        assert not np.signbit(got[2][:2]).any()


def test_conv1x1_backward_continues_the_given_sums_in_place():
    rng = Rng(76)
    x = rng.normal(0, 1, (4, 3, 2, 5), F64)
    gy = rng.normal(0, 1, (4, 2, 2, 5), F64)
    _, cache = conv1x1_forward(x, rng.normal(0, 1, (2, 3), F64), np.zeros(2))
    gw0, gb0 = rng.normal(0, 1, (2, 3), F64), rng.normal(0, 1, 2, F64)
    gw, gb = gw0.copy(), gb0.copy()
    _, gw_out, gb_out = conv1x1_backward(gy, cache, gw, gb)
    assert gw_out is gw and gb_out is gb
    loop_gw, loop_gb = gw0.copy(), gb0.copy()
    for b in range(4):
        loop_gw += gy[b].reshape(2, -1) @ x[b].reshape(3, -1).T
        loop_gb += gy[b].reshape(2, -1).sum(axis=1)
    np.testing.assert_allclose(gw, loop_gw, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(gb, loop_gb, rtol=1e-13, atol=1e-13)
