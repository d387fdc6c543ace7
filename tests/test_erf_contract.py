"""erf's dtype contract, and the float32 path's precision contract.

float32 erf runs its own rational in float32 (``primitives._erf32_block``),
so its bits are pinned by ``test_erf_bitwise.py`` against ``erf32_ref``
and its accuracy here against the float64 path: exact odd symmetry, |erf|
<= 1, and a bound in ulp of the float32 result and in absolute error.
``tools/erf32_sweep.py`` checks the same bounds on every float32 input.
"""

import numpy as np
import pytest

from atconv.primitives import INV_SQRT2, erf, gelu_forward
from atconv.rng import Rng
from oracles import erf32_ref, erf_where_ref, gelu_ref

F32 = np.float32


def ulp32(ref):
    """One ulp of the float32 binade holding each exact value |ref| (float64):
    2^(e - 24) for |ref| in [2^(e-1), 2^e), and the subnormal spacing 2^-149
    at least."""
    _, e = np.frexp(np.abs(ref))
    return np.ldexp(1.0, np.maximum(e - 24, -149))


def f32_range(lo, hi, stride):
    """Every ``stride``-th float32 bit pattern in [lo, hi), lo and hi >= 0."""
    start, stop = np.array([lo, hi], dtype=F32).view(np.uint32)
    return np.arange(start, stop, stride, dtype=np.uint32).view(F32)


def test_non_float_input_gives_float64():
    ints = np.array([1, 2, -3])
    got = erf(ints)
    assert got.dtype == np.float64
    assert got.tobytes() == erf(ints.astype(np.float64)).tobytes()
    assert got[2] < -0.99 and got[0] > 0.84
    flags = np.array([True, False])
    assert erf(flags).tobytes() == erf(np.array([1.0, 0.0])).tobytes()
    assert erf(np.int64(2), 2).dtype == np.float64
    assert erf(np.array(1, dtype=np.int8)).dtype == np.float64


def test_float16_and_float64_stay_on_the_float64_path():
    x16 = np.linspace(-5, 5, 101, dtype=np.float16)
    assert erf(x16).dtype == np.float16
    assert erf(x16).tobytes() == erf_where_ref(x16).tobytes()
    # a scale picks the product's dtype: float16 * float64 -> float64
    x64 = x16.astype(np.float64)
    assert erf(x16, np.float64(0.5)).tobytes() == erf_where_ref(x64 * 0.5).tobytes()


def test_float32_result_dtype_takes_the_float32_path():
    x = np.linspace(-3, 3, 257, dtype=F32)
    assert erf(x).tobytes() == erf32_ref(x).tobytes()
    # float16 * float32 scalar and int16 * float32 scalar are float32 products
    x16 = x.astype(np.float16)
    assert erf(x16, F32(0.5)).tobytes() == erf32_ref(x16.astype(F32) * F32(0.5)).tobytes()
    xi = np.arange(-8, 9, dtype=np.int16)
    assert erf(xi, F32(0.25)).tobytes() == erf32_ref(xi.astype(F32) * F32(0.25)).tobytes()


def test_float32_is_exactly_odd_and_keeps_the_sign_of_zero():
    edges = [0.0, 4.0, np.nextafter(F32(4.0), F32(0.0)), np.finfo(F32).smallest_subnormal,
             np.finfo(F32).max, np.inf]
    x = np.concatenate([f32_range(0.0, 10.0, 4099), np.array(edges, F32)])
    pos, neg = erf(x), erf(-x)
    assert neg.tobytes() == (-pos).tobytes()
    zero = erf(np.array([0.0, -0.0], F32))
    assert zero.tolist() == [0.0, 0.0]
    assert not np.signbit(zero[0]) and np.signbit(zero[1])
    assert np.signbit(erf(np.array([-np.finfo(F32).smallest_subnormal], F32))[0])


def test_float32_is_bounded_and_saturates():
    x = np.concatenate([f32_range(3.0, 4.5, 7), np.array([27.0, np.finfo(F32).max], F32)])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = erf(np.concatenate([x, -x]))
        special = erf(np.array([np.inf, -np.inf, np.nan], F32))
    assert np.abs(got).max() == 1.0
    assert special[0] == 1.0 and special[1] == -1.0 and np.isnan(special[2])
    assert erf(np.array([4.0], F32))[0] == 1.0


def test_float32_subnormals_within_two_ulp():
    tiny = np.finfo(F32).tiny
    x = np.concatenate([f32_range(0.0, tiny, 997), f32_range(tiny, 1e-30, 997)])
    x = x[x > 0]
    ref = erf_where_ref(x.astype(np.float64))
    err = np.abs(erf(x).astype(np.float64) - ref)
    assert (err / ulp32(ref)).max() <= 2.0


def test_float32_within_eight_ulp_and_5e_7_of_float64_path():
    x = f32_range(0.0, 4.5, 997)
    ref = erf_where_ref(x.astype(np.float64))
    err = np.abs(erf(x).astype(np.float64) - ref)
    assert err.max() <= 5e-7
    assert (err / ulp32(ref)).max() <= 8.0


@pytest.mark.parametrize("scale", (1.0, 3.0))
def test_float32_gelu_forward_near_the_math_erf_reference(scale):
    x = Rng(7).normal(0.0, scale, (3000,), F32)
    x = np.concatenate([x, np.array([0.0, -0.0, 4.0, -4.0, 6.0, -6.0], F32) / F32(INV_SQRT2)])
    y, _ = gelu_forward(x)
    assert y.dtype == F32
    err = np.abs(y.astype(np.float64) - gelu_ref(x))
    assert (err / np.maximum(1.0, np.abs(x))).max() <= 4e-7
