"""One padded-run tap layout serves both convolutions at every k.

StaticConv and the dynamic depthwise kernel both read their taps through
``op._tap_runs`` on ``op._padded_blocks`` blocks. At k = 1 StaticConv has
no pointwise fork of its own: its general path must give the bytes the
pointwise primitives give.
"""

import numpy as np
import pytest

from atconv import op as atconv_op
from atconv.baselines import StaticConv, StaticDepthwise
from atconv.primitives import conv1x1_backward, conv1x1_forward
from atconv.rng import Rng

F32, F64 = np.float32, np.float64
# (B, C_in, C_out, H, W): B=1, C_in != C_out both ways, H != W
SHAPES = ((1, 3, 5, 6, 9), (2, 5, 3, 9, 7), (3, 4, 4, 8, 8), (2, 24, 16, 12, 10))


def assert_bitwise(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


def draw(seed, shape, k, dtype, bias=True):
    b_, ci, co, h_, w_ = shape
    rng = Rng(seed)
    w = rng.normal(0, 1, (co, ci, k, k), dtype)
    op = StaticConv(w, rng.normal(0, 1, (co,), dtype) if bias else None)
    return op, rng.normal(0, 1, (b_, ci, h_, w_), dtype), rng.normal(0, 1, (b_, co, h_, w_), dtype)


@pytest.mark.parametrize("bias", (True, False))
@pytest.mark.parametrize("dtype", (F32, F64))
@pytest.mark.parametrize("shape", SHAPES)
def test_static_conv_at_k1_is_bitwise_the_pointwise_conv(shape, dtype, bias):
    op, x, gy = draw(sum(shape), shape, 1, dtype, bias)
    y, cache = op.forward_cached(x)
    ref_y, ref_cache = conv1x1_forward(x, op.w[:, :, 0, 0], op.bias)
    assert_bitwise(y, ref_y)
    gx, gw, gb = op.backward(gy, cache)
    ref_gx, ref_gw, ref_gb = conv1x1_backward(gy, ref_cache)
    assert_bitwise(gx, ref_gx)
    assert gw.shape == op.w.shape
    assert_bitwise(gw[:, :, 0, 0], ref_gw)
    if bias:
        assert_bitwise(gb, ref_gb)
    else:
        assert gb is None and ref_gb is None


@pytest.fixture
def tap_run_calls(monkeypatch):
    """Count the calls into ``op._tap_runs``."""
    calls = []
    inner = atconv_op._tap_runs

    def counted(xpad, k, flip=False):
        calls.append((k, flip))
        return inner(xpad, k, flip)

    monkeypatch.setattr(atconv_op, "_tap_runs", counted)
    return calls


@pytest.mark.parametrize("k", (1, 3, 5))
def test_static_conv_reads_every_tap_through_the_runs(k, tap_run_calls):
    op, x, gy = draw(90 + k, (3, 4, 5, 7, 6), k, F64)
    _, cache = op.forward_cached(x)
    # one padded block per sample
    assert tap_run_calls == [(k, False)] * 3
    tap_run_calls.clear()
    op.backward(gy, cache)
    assert sorted(tap_run_calls) == [(k, False)] * 3 + [(k, True)] * 3


@pytest.mark.parametrize("k", (1, 3, 5))
def test_depthwise_kernels_read_every_tap_through_the_runs(k, tap_run_calls):
    rng = Rng(95 + k)
    v = rng.normal(0, 1, (2, 3, 7, 6), F64)
    alpha = rng.normal(0, 1, (2, 3, k, k), F64)
    _, cache = atconv_op.dyn_depthwise_forward(v, alpha)
    assert tap_run_calls == [(k, False)]
    tap_run_calls.clear()
    atconv_op.dyn_depthwise_backward(v, cache)
    assert tap_run_calls == [(k, True), (k, False)]
    tap_run_calls.clear()
    sd = StaticDepthwise.init(rng, 3, k)
    sd.backward(v, sd.forward_cached(v)[1])
    assert tap_run_calls == [(k, False), (k, True), (k, False)]


@pytest.mark.parametrize("k", (1, 3, 5))
def test_runs_are_the_padded_windows_in_tap_order(k):
    rng = Rng(99)
    x3 = rng.normal(0, 1, (4, 5, 7), F64)
    p = k // 2
    (_, xpad), = atconv_op._padded_blocks(x3, p, [(0, 4)])
    ref = np.pad(x3, ((0, 0), (p, p), (p, p)))
    taps = [(u, t) for u in range(k) for t in range(k)]
    for flip, order in ((False, taps), (True, taps[::-1])):
        runs = atconv_op._tap_runs(xpad, k, flip)
        assert len(runs) == k * k
        for run, (u, t) in zip(runs, order):
            window = run.reshape(4, 5, 7 + 2 * p)[:, :, :7]
            assert_bitwise(window, ref[:, u:u + 5, t:t + 7])


# fixed steps, as the oracles pass them, put the longest range first;
# ``block_ranges`` puts it last
@pytest.mark.parametrize("ranges", ([(0, 3), (3, 6), (6, 7)], [(0, 2), (2, 4), (4, 7)]))
def test_padded_blocks_size_their_buffer_by_the_longest_range(ranges):
    x3 = Rng(98).normal(0, 1, (7, 5, 6), F32)
    ref = np.pad(x3, ((0, 0), (1, 1), (1, 1))).astype(F64)
    blocks = atconv_op._padded_blocks(x3, 1, ranges, F64)
    for (lo, hi), (got_lo, xpad) in zip(ranges, blocks, strict=True):
        assert got_lo == lo and xpad.shape == (hi - lo, 5 + 3, 6 + 2)
        assert_bitwise(xpad[:, :-1], ref[lo:hi])
        assert not xpad[:, -1].any()  # the spare bottom row
