"""erf and the GELU forward/backward against their unblocked versions.

``oracles.erf_ref`` is erf over the whole array: ``erf_where_ref``, erf as
it was when every region of the float64 path ran over the whole array, and
``erf32_ref``, the float32 rational with no blocks.
``oracles.gelu_backward_recompute_ref`` is the GELU backward that
recomputed the CDF through it, and ``oracles.gelu_forward_half_x_ref`` the
GELU forward that formed y as (0.5 x)(1 + erf) before halving the CDF.
The blocked, gathered erf and the cached CDF keep every elementwise
operation in the same order, so the comparisons here are on raw bytes and
dtype, not within a tolerance, for both dtypes.
"""

import numpy as np
import pytest

import oracles
from atconv import primitives
from atconv.primitives import (_ERF_BLOCK, INV_SQRT2, erf, gelu_backward, gelu_forward,
                               gelu_output)
from atconv.rng import Rng
from oracles import erf_ref, gelu_backward_recompute_ref, gelu_forward_half_x_ref

DTYPES = (np.float32, np.float64)
SCALES = (0.3, 1.0, 3.0, 10.0)


def assert_bitwise(got, ref):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.dtype == ref.dtype
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


def region_edges(dtype):
    """±0.46875 and ±4 (the float64 path's region boundaries; ±4 is also
    the float32 clamp) and ±6 (where the outer region clamps |x|) with
    their nextafter neighbours, plus 0, -0.0, ±27 (deep saturation) and a
    subnormal."""
    vals = [0.0, -0.0, 27.0, -27.0]
    sub = np.finfo(dtype).smallest_subnormal
    vals += [sub, -sub]
    for edge in (0.46875, 4.0, 6.0):
        for sign in (1.0, -1.0):
            v = dtype(sign * edge)
            vals += [v, np.nextafter(v, dtype(0.0)), np.nextafter(v, dtype(sign * np.inf))]
    return np.array(vals, dtype=dtype)


def sweep(dtype, scale, shape, seed=0):
    return Rng(seed).normal(0.0, scale, shape, dtype)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("scale", SCALES)
def test_erf_bitwise_on_seeded_sweeps(dtype, scale):
    x = sweep(dtype, scale, (2, 16, 7, 7))
    assert_bitwise(erf(x), erf_ref(x))
    flat = x.reshape(-1)
    assert_bitwise(erf(flat), erf_ref(flat))


@pytest.mark.parametrize("dtype", DTYPES)
def test_erf_bitwise_across_blocks(dtype):
    # two full blocks and a ragged tail, with the region edges at a block seam
    x = sweep(dtype, 3.0, (2 * _ERF_BLOCK + 124,), seed=4)
    edges = region_edges(dtype)
    x[_ERF_BLOCK - 5:_ERF_BLOCK - 5 + edges.size] = edges
    assert_bitwise(erf(x), erf_ref(x))
    xt = x.reshape(4, -1).T
    assert_bitwise(erf(xt), erf_ref(xt))


@pytest.mark.parametrize("dtype", DTYPES)
def test_erf_bitwise_at_region_edges(dtype):
    x = region_edges(dtype)
    got = erf(x)
    assert_bitwise(got, erf_ref(x))
    # erf keeps the sign of zero and saturates to exactly ±1
    assert np.signbit(got[1]) and not np.signbit(got[0])
    assert got[2] == 1.0 and got[3] == -1.0
    for v in x:
        assert_bitwise(erf(v), erf_ref(v))
    # the np.where version left a NaN's slot uninitialised; now NaN maps to NaN
    assert np.isnan(erf(np.array([1.0, np.nan], dtype=dtype))[1])


@pytest.mark.parametrize("dtype", DTYPES)
def test_erf_bitwise_on_zero_d_and_non_contiguous(dtype):
    for v in (dtype(0.3), dtype(-2.5), dtype(9.0), np.array(1.5, dtype=dtype)):
        got = erf(v)
        assert isinstance(got, np.ndarray) and got.ndim == 0
        assert_bitwise(got, erf_ref(v))
    x = sweep(dtype, 3.0, (4, 6, 5, 7), seed=1)
    for view in (x.transpose(0, 2, 3, 1), x[:, ::2, :, 1::2], x[..., ::-1]):
        assert not view.flags.c_contiguous
        assert_bitwise(erf(view), erf_ref(view))
    empty = np.zeros((0, 3), dtype=dtype)
    assert_bitwise(erf(empty), erf_ref(empty))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("scale", SCALES)
def test_gelu_forward_backward_bitwise(dtype, scale):
    # the scaled edges put x / sqrt(2) on (or next to) erf's region edges
    x = np.concatenate([sweep(dtype, scale, (1500,), seed=2),
                        region_edges(dtype) / dtype(INV_SQRT2)])
    gy = sweep(dtype, 1.0, x.shape, seed=3)
    y, cache = gelu_forward(x)
    assert_bitwise(cache.cdf, 0.5 * (1.0 + erf_ref(x * INV_SQRT2)))
    assert_bitwise(y, 0.5 * x * (1.0 + erf_ref(x * INV_SQRT2)))
    assert_bitwise(gelu_backward(gy, cache), gelu_backward_recompute_ref(gy, x))
    x4 = x[:1400].reshape(2, 7, 10, 10)
    gy4 = gy[:1400].reshape(x4.shape).astype(np.float64)
    _, cache4 = gelu_forward(x4)
    assert_bitwise(gelu_backward(gy4, cache4), gelu_backward_recompute_ref(gy4, x4))


def gelu_inputs(dtype):
    """The inputs above in one map: the seeded sweeps at every scale, the
    region edges (with ±0 and the smallest subnormals), more subnormals,
    ±inf and NaN."""
    sub = np.finfo(dtype).smallest_subnormal
    tail = np.array([3 * sub, -1000 * sub, np.inf, -np.inf, np.nan], dtype=dtype)
    return np.concatenate([sweep(dtype, scale, (2, 16, 7, 7)).ravel() for scale in SCALES]
                          + [region_edges(dtype), tail])


@pytest.mark.parametrize("dtype", DTYPES)
def test_gelu_forward_matches_the_half_x_product(dtype, monkeypatch):
    # cdf = (1 + erf) / 2 exactly, and 0.5 x is exact wherever 1 + erf != 1
    # (where it is 1, both forms round 0.5 x once), so x * cdf has the bits
    # of (0.5 x)(1 + erf). The finiteness check is off in both versions, so
    # the outputs of ±inf and NaN are compared too
    monkeypatch.setattr(primitives, "ensure_finite", lambda *args: None)
    monkeypatch.setattr(oracles, "ensure_finite", lambda *args: None)
    x = gelu_inputs(dtype)
    with np.errstate(invalid="ignore"):
        ref_y, ref_cache = gelu_forward_half_x_ref(x)
        for arg, out in ((x, None), (x, np.empty_like(x)), (x[:1400].reshape(2, 7, 10, 10), None)):
            y, cache = gelu_forward(arg, out)
            n = arg.size
            assert_bitwise(y.reshape(-1), ref_y[:n])
            assert_bitwise(cache.cdf.reshape(-1), ref_cache.cdf[:n])
            assert out is None or cache.cdf is out
            assert_bitwise(gelu_output(cache), y)
    # gelu(inf) = inf; gelu(-inf) and gelu(NaN) are NaN
    assert ref_y[-3] == np.inf and np.isnan(ref_y[-2:]).all()
