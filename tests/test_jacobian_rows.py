"""ATConv's structured Jacobian rows against the dense-backward rows.

``ATConv.jacobian_rows`` reads each row from the operator's structure; the
oracle runs one dense input backward per output channel, as the protocol's
generic rows do. Both probes built on the rows, ``conv_jacobian_probe`` and
``influence_map``, must agree with the oracle's to 1e-12 of the largest
reference entry in f64 and 1e-5 in f32, over every ``ATConvConfig``.
"""

import itertools

import numpy as np
import pytest

from atconv.analysis import influence_map
from atconv.baselines import conv_jacobian_probe
from atconv.op import ATConv, ATConvConfig, ATConvParams
from atconv.rng import Rng
from oracles import jacobian_rows_generic_ref

RTOL = {np.float32: 1e-5, np.float64: 1e-12}
SHAPE = (2, 4, 7, 9)  # B > 1 (rows are batch element 0's), H != W
ANCHORS = ((0, 0), (6, 8), (0, 4), (3, 0), (3, 4), (6, 1))  # corners, edges, centre
MODS = ("none", "softmax", "central_diff", "dkm", "dkm_lambda")
CASES = list(itertools.product(MODS, (True, False), (True, False), (True, False)))


def _operator(rng, mod, generator, value, out, k, dtype):
    c = SHAPE[1]
    params = ATConvParams.init(rng, c, k, dtype)
    for name in ("gamma", "w_f_bias", "w_value_bias", "w_out_bias"):
        setattr(params, name, rng.normal(0, 1, (c,), dtype))
    config = ATConvConfig(
        use_kernel_generator=generator, use_value_proj=value, use_out_proj=out,
        kernel_mod="dkm" if mod == "dkm_lambda" else mod,
        static_kernel=None if generator else rng.normal(0, 1, (c, k * k), dtype),
        lambda_override=0.7 if mod == "dkm_lambda" else None)
    return ATConv(params, config)


def _generic_map(op, x, anchor):
    g = np.zeros(x.shape[2:], dtype=np.float64)
    for row in jacobian_rows_generic_ref(op, x, anchor):
        g += np.abs(row).sum(axis=0)
    return g


def _assert_close(got, ref, dtype, what):
    assert got.shape == ref.shape and got.dtype == ref.dtype, what
    err = np.abs(got.astype(np.float64) - ref).max()
    assert err <= RTOL[dtype] * np.abs(ref).max(), (what, err)


@pytest.mark.parametrize("mod,generator,value,out", CASES,
                         ids=["-".join(map(str, case)) for case in CASES])
def test_structured_rows_match_the_dense_backward(mod, generator, value, out):
    rng = Rng(1401)
    for k, dtype in itertools.product((1, 3, 5), (np.float32, np.float64)):
        if mod == "central_diff" and k == 1:
            continue
        op = _operator(rng, mod, generator, value, out, k, dtype)
        x = rng.normal(0, 1, SHAPE, dtype)
        for anchor in ANCHORS:
            what = (k, dtype.__name__, anchor)
            ref = np.stack(list(jacobian_rows_generic_ref(op, x, anchor)))
            _assert_close(conv_jacobian_probe(op, x, anchor), ref, dtype, what)
            _assert_close(influence_map(op, x, anchor), _generic_map(op, x, anchor),
                          dtype, what)


@pytest.mark.parametrize("mod", MODS)
def test_structured_rows_match_central_differences(mod):
    # independent of both paths: d y[0, co, ph, pw] / d x[0, ci, h, w] from
    # op.forward alone, inside the anchor's window and far outside it
    rng = Rng(1402)
    op = _operator(rng, mod, True, True, True, 3, np.float64)
    x = rng.normal(0, 1, SHAPE)
    anchor = (1, 7)
    j = conv_jacobian_probe(op, x, anchor)
    step = 1e-6
    for co, ci, h, w in ((0, 0, 1, 7), (3, 1, 0, 8), (2, 3, 2, 6), (1, 2, 6, 0), (3, 3, 5, 2)):
        xp, xm = x.copy(), x.copy()
        xp[0, ci, h, w] += step
        xm[0, ci, h, w] -= step
        fd = (op.forward(xp)[0, co, anchor[0], anchor[1]]
              - op.forward(xm)[0, co, anchor[0], anchor[1]]) / (2 * step)
        assert abs(j[co, ci, h, w] - fd) <= 1e-7 * max(1.0, abs(fd)), (co, ci, h, w)
