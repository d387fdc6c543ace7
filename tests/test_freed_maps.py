"""Backward passes, caches and the blur that free or never keep dead maps,
against the code they replaced, and the peak-memory guards that hold them
there.

The ``*_ref`` oracles in ``oracles.py`` are ``dyn_depthwise_backward``,
``gelu_backward``, ``glu_backward`` and ``gaussian_blur`` as they were
before: galpha from a whole-tensor padded copy of v, every GELU and GLU
product a fresh array, and the blur summing 2r+1 gathered copies of the
map. ``glu_*_six_tuple_ref`` are the GLU forward and backward from before
the cache dropped gate and h, and ``glu_*_three_map_ref`` those from before
it dropped a and the GELU's input, which the backward now rebuilds from
the cached block input. ``gelu_forward_scaled_map_ref`` is the GELU
forward that built x / sqrt(2) as a whole map. The arithmetic is
unchanged, so every output is compared on raw bytes and dtype.

The rebuild relies on ``conv1x1_forward`` giving the same bytes for the
same arguments, which single-threaded BLAS does; that is pinned here too.
The GLU now runs over chunks of samples (``test_glu_chunks.py``), and
the block spends its caches in the backward (``test_spent_caches.py``);
the peak guards below keep each earlier bound and add the newer ones.
"""

import os

import numpy as np
import pytest

from atconv.analysis import _BLUR_BLOCK, analyze_operator, gaussian_blur
from atconv.errors import NumericError
from atconv.baselines import StaticDepthwise
from atconv.data import synth_dataset
from atconv.micro import (AdamHyper, GluParams, MicroConfig, MicroModel, adam_init,
                          cross_entropy, glu_backward, glu_forward)
from atconv.op import (ATConv, ATConvParams, atconv_backward, dyn_depthwise_backward,
                       dyn_depthwise_forward)
from atconv.primitives import (_ERF_BLOCK, INV_SQRT2, Conv1x1Cache, conv1x1_backward,
                               conv1x1_forward, erf, gelu_backward, gelu_forward)
from atconv.rng import Rng
from atconv.tensor import block_ranges
from atconv.train import TrainSettings, evaluate, step, train
from oracles import (dyn_depthwise_backward_padded_v_ref, gaussian_blur_gather_ref,
                     gelu_backward_fresh_ref, gelu_forward_scaled_map_ref,
                     glu_backward_fresh_ref, glu_backward_six_tuple_ref,
                     glu_backward_three_map_ref, glu_forward_six_tuple_ref,
                     glu_forward_three_map_ref)

F32, F64 = np.float32, np.float64
# (x dtype, gy dtype): plain f32 and f64, and an f64 gradient on f32 input
DTYPES = ((F32, F32), (F64, F64), (F32, F64))
MIB = 1 << 20


def same(got, ref):
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


# ----------------------------------------------------------------------
# dynamic depthwise backward: galpha from v padded block by block
# ----------------------------------------------------------------------

# one block; H != W; several tap-sum blocks, not all of one length (k > 1)
DD_SHAPES = ((2, 3, 6, 5), (3, 10, 9, 13), (3, 101, 20, 31))


def test_the_large_shape_spans_blocks_with_a_partial_last_one():
    # 303 planes in four blocks of 75, 76, 76 and 76 at k = 3 and at k = 5
    b_, c_, h_, w_ = DD_SHAPES[-1]
    for k in (3, 5):
        ranges = block_ranges(b_ * c_, h_ * (w_ + k - 1))
        assert [hi - lo for lo, hi in ranges] == [75, 76, 76, 76]


@pytest.mark.parametrize("dtypes", DTYPES)
@pytest.mark.parametrize("k", (1, 3, 5))
@pytest.mark.parametrize("shape", DD_SHAPES)
def test_dyn_depthwise_backward_matches_the_padded_v_einsums(shape, k, dtypes):
    xdt, gdt = dtypes
    rng = Rng(sum(shape) + k)
    v = rng.normal(0, 1, shape, xdt)
    alpha = rng.normal(0, 1, shape[:2] + (k, k), xdt)
    gy = rng.normal(0, 1, shape, gdt)
    _, cache = dyn_depthwise_forward(v, alpha)
    gv, galpha = dyn_depthwise_backward(gy, cache)
    ref_gv, ref_galpha = dyn_depthwise_backward_padded_v_ref(gy, cache)
    same(gv, ref_gv)
    same(galpha, ref_galpha)


@pytest.mark.parametrize("dtype", (F32, F64))
@pytest.mark.parametrize("shape", ((8, 16, 12, 10), (16, 101, 20, 31)))
def test_static_depthwise_batch_summed_gradient(shape, dtype):
    # the broadcast alpha's galpha keeps its batch axis innermost, which
    # sets the order of the batch sum behind gw
    rng = Rng(sum(shape))
    op = StaticDepthwise.init(rng, shape[1], 3, dtype)
    x = rng.normal(0, 1, shape, dtype)
    gy = rng.normal(0, 1, shape, dtype)
    _, cache = op.forward_cached(x)
    gx, gw = op.backward(gy, cache)
    ref_gx, ref_galpha = dyn_depthwise_backward_padded_v_ref(gy, cache)
    same(gx, ref_gx)
    same(gw, ref_galpha.sum(axis=0))


# ----------------------------------------------------------------------
# GELU and GLU backward in place
# ----------------------------------------------------------------------

@pytest.mark.parametrize("dtypes", DTYPES)
@pytest.mark.parametrize("shape", ((2, 3, 5, 7), (64, 128, 7, 7)))
def test_gelu_backward_in_place_chain(shape, dtypes):
    xdt, gdt = dtypes
    rng = Rng(sum(shape))
    # wide enough that exp underflows and the CDF saturates at both ends
    x = rng.normal(0, 6, shape, xdt)
    gy = rng.normal(0, 1, shape, gdt)
    _, cache = gelu_forward(x)
    same(gelu_backward(gy, cache), gelu_backward_fresh_ref(gy, cache))


@pytest.mark.parametrize("dtypes", DTYPES)
@pytest.mark.parametrize("shape", ((2, 4, 5, 6), (64, 32, 7, 7)))
def test_glu_backward_matches_the_fresh_products(shape, dtypes):
    xdt, gdt = dtypes
    rng = Rng(sum(shape) + 1)
    p = GluParams.init(rng, shape[1], 4, xdt)
    x = rng.normal(0, 1, shape, xdt)
    gy = rng.normal(0, 1, shape, gdt)
    _, cache = glu_forward(x, p)
    gx, grads = glu_backward(gy, cache)
    _, six_tuple = glu_forward_six_tuple_ref(x, p)
    ref_gx, ref_grads = glu_backward_fresh_ref(gy, six_tuple)
    same(gx, ref_gx)
    assert grads.keys() == ref_grads.keys()
    for name in grads:
        same(grads[name], ref_grads[name])


def _scaled(scale, dtype):
    """x's scale: a plain number, or the dtype's subnormal range, where
    0.5 * x rounds."""
    if scale == "subnormal":
        return float(np.finfo(dtype).smallest_subnormal) * 1000
    return scale


@pytest.mark.parametrize("scale", (1.0, 1e-30, 30.0, "subnormal", 0.0))
@pytest.mark.parametrize("dtypes", DTYPES)
def test_glu_with_three_cached_maps_matches_the_six_tuple_pair(dtypes, scale):
    xdt, gdt = dtypes
    shape = (3, 8, 5, 6)
    rng = Rng(17)
    p = GluParams.init(rng, shape[1], 4, xdt)
    x = (rng.normal(0, 1, shape, F64) * _scaled(scale, xdt)).astype(xdt)
    gy = rng.normal(0, 1, shape, gdt)
    y, cache = glu_forward(x, p)
    if scale == "subnormal":
        braw = conv1x1_forward(x, p.w_b, p.b_b)[0]  # the GELU's input
        assert np.any(np.multiply(0.5, braw) * 2 != braw)
    ref_y, ref_cache = glu_forward_six_tuple_ref(x, p)
    same(y, ref_y)
    gx, grads = glu_backward(gy, cache)
    ref_gx, ref_grads = glu_backward_six_tuple_ref(gy, ref_cache)
    same(gx, ref_gx)
    assert grads.keys() == ref_grads.keys()
    for name in grads:
        same(grads[name], ref_grads[name])


# a small odd shape and the acceptance config's (B=64, C=32, 7x7)
GLU_SHAPES = ((3, 8, 5, 6), (64, 32, 7, 7))


@pytest.mark.parametrize("scale", (1.0, 1e-30, 30.0, "subnormal", 0.0))
@pytest.mark.parametrize("dtypes", DTYPES)
@pytest.mark.parametrize("shape", GLU_SHAPES)
def test_glu_with_one_cached_map_matches_the_three_map_pair(shape, dtypes, scale):
    xdt, gdt = dtypes
    rng = Rng(sum(shape) + 3)
    p = GluParams.init(rng, shape[1], 4, xdt)
    x = (rng.normal(0, 1, shape, F64) * _scaled(scale, xdt)).astype(xdt)
    gy = rng.normal(0, 1, shape, gdt)
    y, cache = glu_forward(x, p)
    ref_y, ref_cache = glu_forward_three_map_ref(x, p)
    same(y, ref_y)
    same(cache.cdf, ref_cache.cg.cdf)
    gx, grads = glu_backward(gy, cache)
    ref_gx, ref_grads = glu_backward_three_map_ref(gy, ref_cache)
    same(gx, ref_gx)
    assert grads.keys() == ref_grads.keys()
    for name in grads:
        same(grads[name], ref_grads[name])


def _gelu_edges(dtype):
    """erf's region edges (0.46875, 4, 6) scaled by sqrt(2) with their
    nextafter neighbours, so x / sqrt(2) lands on both sides of each; ±0,
    a subnormal, ±27 and the largest finite value (1.7e308 in f64)."""
    vals = [0.0, -0.0, 27.0, -27.0]
    sub = np.finfo(dtype).smallest_subnormal
    vals += [sub, -sub]
    for edge in (0.46875, 4.0, 6.0):
        for sign in (1.0, -1.0):
            v = dtype(sign * edge * np.sqrt(2.0))
            vals += [v, np.nextafter(v, dtype(0.0)), np.nextafter(v, dtype(sign * np.inf))]
    big = 1.7e308 if dtype == F64 else np.finfo(dtype).max
    vals += [big, -big]
    return np.array(vals, dtype=dtype)


@pytest.mark.parametrize("dtype", (F32, F64))
def test_gelu_forward_matches_the_scaled_map_at_region_edges(dtype):
    edges = _gelu_edges(dtype)
    # one block of edges, then a map over three erf blocks (the last one
    # partial) with the edges at a block seam
    x = Rng(5).normal(0, 6, (2 * _ERF_BLOCK + 999,), dtype)
    x[_ERF_BLOCK - 7:_ERF_BLOCK - 7 + edges.size] = edges
    for arg in (edges, x, x[:3 * 7 * 11 * 13].reshape(3, 7, 11, 13), edges[3]):
        y, cache = gelu_forward(arg)
        ref_y, ref_cache = gelu_forward_scaled_map_ref(arg)
        same(y, ref_y)
        same(cache.cdf, ref_cache.cdf)


@pytest.mark.parametrize("dtype", (F32, F64))
@pytest.mark.parametrize("bad", (np.inf, -np.inf, np.nan))
def test_gelu_forward_rejects_what_the_scaled_map_rejected(dtype, bad):
    # gelu(inf) = inf and gelu(-inf) = NaN; both versions stop at the same
    # check, after the same CDF
    x = np.array([1.0, bad, -2.0], dtype=dtype)
    same(erf(x, INV_SQRT2), erf(x * INV_SQRT2))
    with np.errstate(invalid="ignore"), pytest.raises(NumericError) as got:
        gelu_forward(x)
    with np.errstate(invalid="ignore"), pytest.raises(NumericError) as ref:
        gelu_forward_scaled_map_ref(x)
    assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("dtypes", ((F32, F32), (F64, F64), (F32, F64)))
@pytest.mark.parametrize("batch", (64, 256))
def test_conv1x1_forward_repeats_its_bytes(batch, dtypes):
    # glu_backward rebuilds W_a x and W_b x and relies on this; it holds
    # for single-threaded BLAS, which conftest pins
    assert os.environ["ATCONV_THREADS"] == "1"
    xdt, wdt = dtypes
    rng = Rng(batch)
    x = rng.normal(0, 1, (batch, 32, 7, 7), xdt)
    w = rng.normal(0, 1, (128, 32), wdt)
    bias = rng.normal(0, 1, 128, wdt)
    first, cache = conv1x1_forward(x, w, bias)
    same(conv1x1_forward(x, w, bias)[0], first)
    # the arguments glu_backward passes: the cached x and cast weight
    same(conv1x1_forward(cache.x, cache.w, bias)[0], first)


@pytest.mark.parametrize("dtype", (F32, F64))
def test_model_forward_matches_the_cached_forward(dtype):
    rng = Rng(19)
    model = MicroModel.init(rng, MicroConfig(channels=8, blocks=2), dtype=dtype)
    x = rng.normal(0, 1, (5, 1, 12, 12), dtype)
    same(model.forward(x), model.forward_cached(x)[0])


# ----------------------------------------------------------------------
# gaussian blur from edge-padded blocks
# ----------------------------------------------------------------------

# analyze's shape; H != W; several blur blocks, not all of one length
BLUR_SHAPES = ((1, 64, 32, 32), (2, 3, 9, 14), (5, 11, 30, 20))


def test_the_last_blur_shape_spans_blocks_with_a_partial_last_one():
    # 55 planes in blocks of 18, 18 and 19
    b_, c_, h_, w_ = BLUR_SHAPES[-1]
    ranges = block_ranges(b_ * c_, h_ * w_, _BLUR_BLOCK)
    assert [hi - lo for lo, hi in ranges] == [18, 18, 19]


@pytest.mark.parametrize("sigma", (0.7, 1.0, 2.5))
@pytest.mark.parametrize("dtype", (F32, F64))
@pytest.mark.parametrize("shape", BLUR_SHAPES)
def test_gaussian_blur_matches_the_gathered_copies(shape, dtype, sigma):
    x = Rng(sum(shape)).normal(0, 1, shape, dtype)
    same(gaussian_blur(x, sigma), gaussian_blur_gather_ref(x, sigma))


def test_gaussian_blur_on_a_non_contiguous_input():
    x = Rng(7).normal(0, 1, (2, 3, 11, 8), F64).transpose(0, 1, 3, 2)[:, ::-1]
    assert not x.flags.c_contiguous
    same(gaussian_blur(x, 1.0), gaussian_blur_gather_ref(x, 1.0))


# ----------------------------------------------------------------------
# peak guards
# ----------------------------------------------------------------------

def test_operator_forward_and_backward_peak(traced_peak):
    # 8 maps of 2 MiB (16.2 MiB) while the dead gradients were kept, then 6
    # (12.2 MiB) while the generator's backward made two full-size maps of
    # its own. It now spreads its k x k gradient into gx_value in place, so
    # the peak is the depthwise backward's: the output, the cached v and y,
    # g_y and g_v, and the tap sum's block buffers (10.89 MiB)
    rng = Rng(910)
    shape = (8, 64, 32, 32)
    op = ATConv(ATConvParams.init(rng, 64, 3, F32))
    x = rng.normal(0, 1, shape, F32)
    gy = rng.normal(0, 1, shape, F32)

    def forward_backward():
        y, cache = op.forward_cached(x)  # y stays alive, as in a training step
        return y, atconv_backward(gy, cache)

    assert traced_peak(forward_backward) <= 11.4 * MIB


def test_analyze_operator_peak(traced_peak):
    # the analyze_c64 unit, B1 C64 H32 f64: 2.97 MiB at the bumped
    # forward. A cache held through the rows read 3.99 MiB, and the last
    # row kept alive into the inhibition probe 3.48 MiB. The first call in
    # a process allocates 0.1 MiB more, so one call warms up.
    rng = Rng(917)
    op = ATConv(ATConvParams.init(rng, 64, 3))
    x = rng.normal(0, 1, (1, 64, 32, 32))
    analyze_operator(op, x)
    assert traced_peak(analyze_operator, op, x) < 3.0 * MIB


def _glu_at_the_acceptance_shape():
    rng = Rng(911)
    shape = (64, 32, 7, 7)
    p = GluParams.init(rng, 32, 4, F32)
    x = rng.normal(0, 1, shape, F32)
    gy = rng.normal(0, 1, shape, F32)
    _, cache = glu_forward(x, p)
    return gy, cache, 4 * x.nbytes  # one hidden map


def _hidden_maps(cache, hidden_size):
    """The distinct arrays of ``hidden_size`` elements the cache holds."""
    def arrays(obj):
        if isinstance(obj, np.ndarray):
            yield obj
        elif isinstance(obj, tuple):
            for item in obj:
                yield from arrays(item)

    return list({id(a): a for a in arrays(cache) if a.size == hidden_size}.values())


def test_glu_backward_transient_peak(traced_peak):
    # the rebuilt b, and at most two more hidden maps: 3.29 maps. 4.27
    # while the rebuilt a lived through W_a's backward, 2.27 while a and b
    # were cached, five while every product was fresh
    gy, cache, hidden = _glu_at_the_acceptance_shape()
    assert traced_peak(glu_backward, gy, cache) <= (1.5 + 2) * hidden


def test_glu_backward_transient_peak_over_chunks(traced_peak):
    # gx (a quarter map) and one chunk's maps: 1.09 maps at B=64, where a
    # chunk is 10 samples
    gy, cache, hidden = _glu_at_the_acceptance_shape()
    assert traced_peak(glu_backward, gy, cache) <= 1.3 * hidden


def test_glu_forward_peak_over_chunks(traced_peak):
    # the CDF, y (a quarter map) and one chunk's maps: 2.11 maps; 3.02
    # while the forward ran over the whole batch
    rng = Rng(911)
    p = GluParams.init(rng, 32, 4, F32)
    x = rng.normal(0, 1, (64, 32, 7, 7), F32)
    assert traced_peak(glu_forward, x, p) <= 2.4 * 4 * x.nbytes


def test_glu_forward_peak_with_chunks_written_in_place(traced_peak):
    # 1.96 maps: each chunk's W_c conv and GELU write into y and the CDF,
    # where the chunk's own y and CDF were copied over (2.11 maps)
    rng = Rng(911)
    p = GluParams.init(rng, 32, 4, F32)
    x = rng.normal(0, 1, (64, 32, 7, 7), F32)
    glu_forward(x, p)  # the first call in a process allocates a little more
    assert traced_peak(glu_forward, x, p) <= 2.05 * 4 * x.nbytes


def test_glu_forward_peak_with_each_chunk_h_dropped(traced_peak):
    # 1.65 maps: W_c's cache drops its input h chunk by chunk, where the
    # last chunk's h lived through the next chunk's GELU (1.96 maps)
    rng = Rng(911)
    p = GluParams.init(rng, 32, 4, F32)
    x = rng.normal(0, 1, (64, 32, 7, 7), F32)
    glu_forward(x, p)
    assert traced_peak(glu_forward, x, p) <= 1.75 * 4 * x.nbytes


def test_glu_cache_and_backward_transient_peak(traced_peak):
    # the cache plus the backward's transient maps; 3 + 2.27 maps while
    # the cache kept a and b
    gy, cache, hidden = _glu_at_the_acceptance_shape()
    cached = sum(a.nbytes for a in _hidden_maps(cache, hidden // 4))
    assert cached == hidden
    assert cached + traced_peak(glu_backward, gy, cache) <= 5.5 * hidden


def test_glu_cache_holds_one_hidden_map():
    # the GELU's CDF; a, b, gate and h are rebuilt by the backward
    shape = (4, 8, 5, 5)
    rng = Rng(913)
    x = rng.normal(0, 1, shape, F32)
    _, cache = glu_forward(x, GluParams.init(rng, shape[1], 4, F32))
    maps = _hidden_maps(cache, 4 * x.size)
    assert len(maps) == 1 and maps[0] is cache.cdf
    assert cache.cc.x is None


def test_gelu_forward_peak(traced_peak):
    # the CDF, y and erf's block temporaries; 4.91 MiB while x / sqrt(2)
    # was built as a whole map
    x = Rng(916).normal(0, 1, (64, 128, 7, 7), F32)
    assert traced_peak(gelu_forward, x) <= 4.0 * MIB


def _acceptance_model(rng, dtype=F32):
    config = MicroConfig(channels=32, blocks=2, patch=4, kernel=3, expansion=4)
    return MicroModel.init(rng, config, dtype=dtype)


def _training_step_peak(traced_peak, dtype=F32):
    rng = Rng(914)
    model = _acceptance_model(rng, dtype)
    params = model.named_parameters()
    state = adam_init(params)
    x = rng.normal(0, 1, (64, 1, 28, 28), dtype)
    labels = np.arange(64) % 10
    return traced_peak(step, model, x, labels, cross_entropy, params, state, AdamHyper())


def test_training_step_peak(traced_peak):
    # 24.7 MiB while each GLU cache kept gate and h (five hidden maps)
    assert _training_step_peak(traced_peak) <= 19.5 * MIB


def test_training_step_peak_with_the_projections_rebuilt(traced_peak):
    # 18.8 MiB while each GLU cache kept a and the GELU's input
    assert _training_step_peak(traced_peak) <= 16.0 * MIB


def test_training_step_peak_with_a_rebuilt_twice(traced_peak):
    # 14.0 MiB; 15.5 MiB while each GLU backward kept its rebuilt a alive
    # through W_a's backward
    assert _training_step_peak(traced_peak) <= 14.5 * MIB


def test_training_step_peak_with_the_glu_in_chunks(traced_peak):
    # 11.86 MiB; 14.0 MiB while the GLU ran over the whole batch
    assert _training_step_peak(traced_peak) <= 12.5 * MIB


def test_training_step_peak_with_spent_caches(traced_peak):
    # 9.57 MiB, in the second block's GLU forward: each block's cache is
    # spent by its backward, holds no norm output, and the residuals add
    # in place. 11.85 MiB while every block's cache lived until the step
    # ended, with the peak in the second block's depthwise backward
    assert _training_step_peak(traced_peak) <= 10.3 * MIB


def test_training_step_peak_with_v_and_the_patch_columns_rebuilt(traced_peak):
    # 8.46 MiB, in the second block's GLU backward: the block cache keeps
    # no depthwise v, the patch embedding keeps its input, not its
    # columns, and the GLU drops each chunk's h; 9.57 MiB before, in the
    # second block's GLU forward
    assert _training_step_peak(traced_peak) <= 8.9 * MIB


def test_training_step_peak_in_float64(traced_peak):
    # 16.90 MiB; 19.37 MiB while the block cache kept v and the patch
    # embedding its columns
    assert _training_step_peak(traced_peak, F64) <= 17.8 * MIB


def test_training_run_peak(traced_peak, tmp_path):
    # one train() as perfbench's train unit runs it: 64 samples, 4 epochs,
    # a 32-image test set, a checkpoint. 9.22 MiB: Adam's state keeps one
    # copy of the parameters for the rescue; 9.34 MiB while train() copied
    # them before every step and held the step before's copy too
    train_set, held = synth_dataset(1, 64, 32)
    config = MicroConfig(channels=32, blocks=2, patch=4, kernel=3, expansion=4)
    settings = TrainSettings(epochs=4, batch_size=64, seed=1, dtype="f32")
    peak = traced_peak(train, config, train_set, held, settings, None,
                       str(tmp_path / "model.atck"))
    assert peak <= 9.30 * MIB


def test_training_run_peak_with_one_gate_per_chunk(traced_peak, tmp_path):
    # 8.90 MiB: the head's cotangent reaches the blocks as a broadcast view,
    # not a copied map, and each GLU chunk builds its gate once, hands h =
    # gate * a to W_c's backward, which frees it before its gx, and turns
    # the gate into W_a's cotangent in place; 9.22 MiB before
    train_set, held = synth_dataset(1, 64, 32)
    config = MicroConfig(channels=32, blocks=2, patch=4, kernel=3, expansion=4)
    settings = TrainSettings(epochs=4, batch_size=64, seed=1, dtype="f32")
    peak = traced_peak(train, config, train_set, held, settings, None,
                       str(tmp_path / "model.atck"))
    assert peak <= 9.0 * MIB


def test_conv1x1_backward_frees_an_input_held_by_its_cache_alone(traced_peak):
    # W_c's backward in the GLU: x, the hidden map, is built for the call
    # and dropped before gx, a map of x's size, is allocated. So the peak is
    # one map and the gw block buffer (1.18 maps), not two maps (2.01)
    rng = Rng(918)
    w = rng.normal(0, 1, (32, 128), F32)
    gy = rng.normal(0, 1, (64, 32, 7, 7), F32)
    hidden = 64 * 128 * 49 * 4

    def backward():
        return conv1x1_backward(gy, Conv1x1Cache(np.ones((64, 128, 7, 7), F32), w, None))

    assert traced_peak(backward) <= 1.3 * hidden


def _evaluate_peak(traced_peak):
    rng = Rng(915)
    model = _acceptance_model(rng)
    x = rng.normal(0, 1, (256, 1, 28, 28), F32)
    labels = np.arange(256) % 10
    return traced_peak(evaluate, model, x, labels, 256)


def test_evaluate_peak(traced_peak):
    # 90.6 MiB while the forward kept every block's cache alive
    assert _evaluate_peak(traced_peak) <= 45 * MIB


def test_evaluate_peak_with_b_dropped_before_a(traced_peak):
    # 39.5 MiB while glu_forward held a and b together through the GELU
    assert _evaluate_peak(traced_peak) <= 36 * MIB


def test_evaluate_peak_with_the_glu_in_chunks(traced_peak):
    # 24.2 MiB; 33.4 MiB while the GLU ran over the whole batch
    assert _evaluate_peak(traced_peak) <= 26 * MIB


def test_evaluate_peak_with_in_place_residuals(traced_peak):
    # 20.74 MiB: the block drops its mixer output and norm outputs at their
    # last use and adds the GLU's output into x1 in place; 24.2 MiB before
    assert _evaluate_peak(traced_peak) <= 22 * MIB


def test_evaluate_peak_without_v_in_the_block_cache(traced_peak):
    # 18.72 MiB: the block's cache holds no depthwise v through the GLU,
    # and the GLU drops each chunk's h; 20.74 MiB before
    assert _evaluate_peak(traced_peak) <= 19.5 * MIB


def test_gaussian_blur_peak(traced_peak):
    # the two gathers held 2r+1 = 7 copies of the map each (10 maps in all)
    x = Rng(912).normal(0, 1, (1, 64, 32, 32), F64)
    assert traced_peak(gaussian_blur, x, 1.0) <= 3 * x.nbytes
