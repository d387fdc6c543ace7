"""Maps the training step rebuilds instead of holding, copies it no longer
makes, and erf's block temporaries kept below 128 KiB, against the code
they replaced.

With the mixer's value projection on, a block's cache keeps the depthwise
stage's kernels without its input v, which ``block_backward`` rebuilds
from norm1's output. The patch embedding caches its input instead of the
folded columns, and the GLU's forward drops W_c's input h chunk by
chunk. The arithmetic is unchanged: the block and the classifier are
compared with the kept-cache oracles under every mixer ablation in
``test_spent_caches.py``, and the patch embedding here with
``oracles.patch_embed_*_cols_ref``, on raw bytes and dtype.

``Rng.u64`` runs its xoshiro rounds into one preallocated array; its
draws are compared byte for byte with ``oracles.rng_u64_ref``, the loop
that built each round as a fresh array.
"""

import importlib
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from atconv import micro, primitives
from atconv.data import synth_dataset
from atconv.micro import (BlockParams, GluParams, MicroConfig, MicroModel, block_backward,
                          block_forward, glu_forward, patch_embed_backward,
                          patch_embed_forward)
from atconv.op import atconv_forward_cached
from atconv.primitives import _ERF_BLOCK, INV_SQRT2, erf, layer_norm_forward
from atconv.rng import Rng
from atconv.train import TrainSettings, train
from oracles import (patch_embed_backward_cols_ref, patch_embed_forward_cols_ref,
                     rng_u64_ref)

train_module = importlib.import_module("atconv.train")  # the package exports train()
F32, F64 = np.float32, np.float64
# (input dtype, weight and cotangent dtype)
DTYPES = ((F32, F32), (F64, F64), (F32, F64))


def same(got, ref):
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


# ----------------------------------------------------------------------
# the depthwise stage's v, rebuilt by the block's backward
# ----------------------------------------------------------------------

@pytest.mark.parametrize("dtypes", DTYPES)
def test_block_backward_rebuilds_the_forward_v(dtypes, monkeypatch):
    xdt, wdt = dtypes
    rng = Rng(2902)
    p = BlockParams.init(rng, 8, 3, 2, wdt)
    x = rng.normal(0, 1, (5, 8, 6, 7), xdt)
    n1 = layer_norm_forward(x, p.norm1_gain, p.norm1_offset)[0]
    forward_v = atconv_forward_cached(n1, p.mixer)[1].dd.v
    y, cache = block_forward(x, p)
    seen = []
    mixer_backward = micro.atconv_backward

    def spy(gy, c):
        seen.append(c.dd.v)
        return mixer_backward(gy, c)

    monkeypatch.setattr(micro, "atconv_backward", spy)
    block_backward(rng.normal(0, 1, y.shape, wdt), cache)
    assert len(seen) == 1
    same(seen[0], forward_v)


def test_the_model_cache_keeps_no_v_and_the_input_not_its_columns():
    rng = Rng(2903)
    model = MicroModel.init(rng, MicroConfig(channels=8, blocks=2), dtype=F32)
    x = rng.normal(0, 1, (3, 1, 12, 12), F32)
    c_embed, block_caches, _, _ = model.forward_cached(x)[1].caches
    assert all(bc.caches[1].dd.v is None for bc in block_caches)
    sub, held, patch = c_embed
    assert held is x and sub.x is None and patch == 4


# ----------------------------------------------------------------------
# the patch embedding caches its input
# ----------------------------------------------------------------------

@pytest.mark.parametrize("dtypes", DTYPES)
@pytest.mark.parametrize("shape,patch", (((4, 1, 28, 28), 4), ((3, 3, 10, 15), 5)))
def test_patch_embed_matches_the_cached_columns(shape, patch, dtypes):
    xdt, wdt = dtypes
    rng = Rng(sum(shape) + patch)
    c_in = shape[1] * patch * patch
    w, bias = rng.normal(0, 1, (6, c_in), wdt), rng.normal(0, 1, (6,), wdt)
    x = rng.normal(0, 1, shape, xdt)
    y, cache = patch_embed_forward(x, w, bias, patch)
    assert cache[1] is x and cache[0].x is None
    ref_y, ref_cache = patch_embed_forward_cols_ref(x, w, bias, patch)
    same(y, ref_y)
    gy = rng.normal(0, 1, y.shape, wdt)
    for got, ref in zip(patch_embed_backward(gy, cache),
                        patch_embed_backward_cols_ref(gy, ref_cache)):
        same(got, ref)


# ----------------------------------------------------------------------
# the GLU's forward drops each chunk's h
# ----------------------------------------------------------------------

def test_glu_forward_leaves_no_chunk_h_alive(monkeypatch):
    # C=8, E=32 at 7x7: a chunk holds at most 41 samples, so 100 are three
    rng = Rng(2904)
    p = GluParams.init(rng, 8, 4, F32)
    x = rng.normal(0, 1, (100, 8, 7, 7), F32)
    hs, alive_at_gelu = [], []
    conv, gelu = micro.conv1x1_forward, micro.gelu_forward

    def conv_spy(xs, w, bias=None, out=None):
        if xs.shape[1] == 32:  # W_c's input, the chunk's h
            hs.append(weakref.ref(xs))
        return conv(xs, w, bias, out)

    def gelu_spy(braw, cdf_out=None):
        alive_at_gelu.append(sum(ref() is not None for ref in hs))
        return gelu(braw, cdf_out)

    monkeypatch.setattr(micro, "conv1x1_forward", conv_spy)
    monkeypatch.setattr(micro, "gelu_forward", gelu_spy)
    y, cache = glu_forward(x, p)
    assert len(hs) == 3 and alive_at_gelu == [0, 0, 0]
    assert all(ref() is None for ref in hs)
    assert cache.cc.x is None


# ----------------------------------------------------------------------
# erf's block temporaries stay below glibc's 128 KiB thresholds
# ----------------------------------------------------------------------

def _largest_allocation(fn, *args):
    """The largest single array allocation alive at any line of erf and its
    helpers while ``fn(*args)`` runs, in bytes: a tracemalloc snapshot of
    numpy's domain is taken at each line and return of their frames, so
    every temporary bound to a name or passed as an argument is seen.
    Arrays made before the call are not traced."""
    codes = {f.__code__ for f in (primitives.erf, primitives._erf32_block,
                                  primitives._erf_block, primitives._rational,
                                  primitives._erf_from_scaled_erfc)}
    numpy_domain = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
    largest = 0

    def local(frame, event, arg):
        nonlocal largest
        traces = tracemalloc.take_snapshot().filter_traces([numpy_domain]).traces
        largest = max([largest] + [t.size for t in traces])
        return local

    def calls(frame, event, arg):
        return local if frame.f_code in codes else None

    tracemalloc.start()
    sys.settrace(calls)
    try:
        fn(*args)
    finally:
        sys.settrace(None)
        tracemalloc.stop()
    return largest


@pytest.mark.parametrize("scale", (None, INV_SQRT2))
@pytest.mark.parametrize("dtype", (F32, F64))
def test_erf_makes_no_allocation_of_128_kib(dtype, scale):
    # several blocks on either path, with a ragged last one; wide enough
    # that the float64 path visits all three of its regions
    x = Rng(2905).normal(0, 3, (2 * _ERF_BLOCK + 999,), dtype)
    out = np.empty_like(x)
    largest = _largest_allocation(erf, x, scale, out)
    assert 0 < largest < 128 << 10
    same(out, erf(x, scale))


# ----------------------------------------------------------------------
# the random stream's rounds, written in place
# ----------------------------------------------------------------------

# draw sizes in order: none, within a round, a round's remainder, exact
# rounds, many rounds, and draws that leave and then spend a remainder
DRAWS = (0, 1, 255, 256, 257, 3, 1000, 0, 70000, 511, 131072, 7)


@pytest.mark.parametrize("seed", (0, 1, 2903, (1 << 64) - 1))
def test_u64_matches_the_fresh_rounds(seed):
    rng, ref = Rng(seed), Rng(seed)
    for n in DRAWS:
        got = rng.u64(n)
        assert got.dtype == np.uint64 and got.shape == (n,)
        assert got.tobytes() == rng_u64_ref(ref, n).tobytes()
        assert rng._buf.tobytes() == ref._buf.tobytes()
    for name in ("_s0", "_s1", "_s2", "_s3"):
        assert getattr(rng, name).tobytes() == getattr(ref, name).tobytes()


# ----------------------------------------------------------------------
# train() reads the sets in place
# ----------------------------------------------------------------------

@pytest.mark.parametrize("dtype", ("f32", "f64"))
def test_train_copies_a_set_only_to_change_its_dtype(dtype, monkeypatch):
    train_set, test_set = synth_dataset(2907, 24, 12)
    assert test_set.images.dtype == F32
    before = train_set.images.copy(), test_set.images.copy()
    seen = []
    evaluate = train_module.evaluate

    def spy(model, images, labels, *args):
        seen.append(images)
        return evaluate(model, images, labels, *args)

    monkeypatch.setattr(train_module, "evaluate", spy)
    config = MicroConfig(channels=4, blocks=1, expansion=2)
    train(config, train_set, test_set, TrainSettings(epochs=1, batch_size=8, dtype=dtype))
    assert len(seen) == 1
    assert (seen[0] is test_set.images) == (dtype == "f32")
    assert seen[0].dtype == (F32 if dtype == "f32" else F64)
    same(train_set.images, before[0])
    same(test_set.images, before[1])
