"""ATConv's influence map per pooling cell against the protocol's default.

``ATConv.influence`` sums the generator path once per cell that the
pooling windows cut the map into, and the anchor's k x k window pixel by
pixel. Its map must be the default's, ``Operator.influence`` reducing the
Jacobian rows, byte for byte and in the same C-contiguous float64 layout,
since ``far`` and the centroid sum the map in memory order.
"""

import itertools

import numpy as np
import pytest

from atconv.analysis import analyze_operator
from atconv.op import KERNEL_MODS, ATConv, ATConvConfig, ATConvParams, Operator, _pool_cells
from atconv.primitives import _pool_bounds
from atconv.rng import Rng

MAPS = ((32, 32), (30, 17), (7, 7))
PROJECTIONS = ((True, True), (False, False), (True, False), (False, True))


def _anchors(h, w):
    """Centre, a corner and an edge."""
    return ((h // 2, w // 2), (h - 1, 0), (0, w // 3))


def _configs(rng, c, k, dtype):
    for mod, (value, out) in itertools.product(KERNEL_MODS, PROJECTIONS):
        if mod == "central_diff" and k == 1:
            continue  # a 1x1 kernel has no off-centre taps
        yield f"{mod}.value={value}.out={out}", ATConvConfig(
            kernel_mod=mod, use_value_proj=value, use_out_proj=out)
    yield "static", ATConvConfig(use_kernel_generator=False,
                                 static_kernel=rng.normal(0, 1, (c, k * k), dtype))


def _assert_same_map(g, ref, what):
    assert g.dtype == ref.dtype == np.float64, what
    assert g.flags.c_contiguous and g.shape == ref.shape, what
    assert g.tobytes() == ref.tobytes(), (what, np.abs(g - ref).max())


@pytest.mark.parametrize("dtype", (np.float32, np.float64), ids=("f32", "f64"))
@pytest.mark.parametrize("c", (5, 16, 64))
@pytest.mark.parametrize("k", (1, 3, 5))
def test_cell_map_is_bitwise_the_default(k, c, dtype):
    rng = Rng(2100 + 10 * k + c)
    params = ATConvParams.init(rng, c, k, dtype)
    for name in ("gamma", "w_f_bias", "w_value_bias", "w_out_bias"):
        setattr(params, name, rng.normal(0, 1, (c,), dtype))
    for h, w in MAPS:
        x = rng.normal(0, 1, (2, c, h, w), dtype)
        for tag, config in _configs(rng, c, k, dtype):
            op = ATConv(params, config)
            _, cache = op.forward_cached(x)
            for anchor in _anchors(h, w):
                _assert_same_map(op.influence(cache, anchor),
                                 Operator.influence(op, cache, anchor), (h, w, tag, anchor))


@pytest.mark.parametrize("shape", ((1, 9), (6, 1), (1, 1)))
def test_a_map_one_pixel_high_or_wide_takes_the_default(shape):
    rng = Rng(2140)
    op = ATConv(ATConvParams.init(rng, 12, 1))
    _, cache = op.forward_cached(rng.normal(0, 1, (1, 12) + shape))
    anchor = (shape[0] - 1, shape[1] // 2)
    _assert_same_map(op.influence(cache, anchor), Operator.influence(op, cache, anchor), shape)


@pytest.mark.parametrize("size,k", ((32, 3), (30, 5), (17, 5), (7, 5), (5, 5), (9, 1)))
def test_pool_cells_share_their_windows(size, k):
    bounds = _pool_bounds(size, k)
    starts, cell = _pool_cells(bounds, size)
    assert len(starts) <= 2 * k - 1 and starts[0] == 0
    assert np.array_equal(cell[starts], np.arange(len(starts)))
    windows = [frozenset(i for i, (lo, hi) in enumerate(bounds) if lo <= p < hi)
               for p in range(size)]
    for p in range(size):
        assert windows[p] == windows[starts[cell[p]]]
    # neighbouring cells lie in different windows
    assert all(windows[a] != windows[b] for a, b in zip(starts, starts[1:]))


def test_analyze_reads_the_cell_map():
    rng = Rng(2150)
    op = ATConv(ATConvParams.init(rng, 8, 3))
    x = rng.normal(0, 1, (1, 8, 16, 16))
    _, cache = op.forward_cached(x)
    report = analyze_operator(op, x, anchor=(3, 12))
    ref = Operator.influence(op, cache, (3, 12))
    _assert_same_map(report["maps"]["influence"], ref, "analyze")
