"""Every operator's structured Jacobian rows against the dense-backward rows.

Each operator's ``jacobian_rows`` reads each row from its structure; the
oracle runs one dense backward per output channel, as the protocol's
generic rows did. Both probes built on the rows, ``conv_jacobian_probe``
and ``influence_map``, must agree with the oracle's to 1e-12 of the
largest reference entry in f64 and 1e-5 in f32, for ATConv over every
``ATConvConfig`` and for the attention. The identity's and the static
convolutions' rows are exact, so theirs must equal the oracle's in value.
"""

import itertools

import numpy as np
import pytest

from atconv.analysis import influence_map
from atconv.baselines import (IdentityOp, StaticConv, StaticDepthwise, ToySAParams,
                              ToySelfAttention, conv_jacobian_probe)
from atconv.errors import DimensionError
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


def _assert_equal(got, ref, what):
    # signed zeros may differ, so values are compared, not bytes
    assert got.shape == ref.shape and got.dtype == ref.dtype, what
    assert np.array_equal(got, ref), what


def _exact_operator(rng, name, k, dtype):
    c = SHAPE[1]
    if name == "identity":
        return IdentityOp()
    if name == "static_dwconv":
        return StaticDepthwise.init(rng, c, k, dtype)
    # C_out != C_in
    return StaticConv(rng.normal(0, 1, (c - 1, c, k, k), dtype), rng.normal(0, 1, (c - 1,), dtype))


def _toy_sa(rng, dtype):
    return ToySelfAttention(ToySAParams.init(rng, SHAPE[1], d=3, dtype=dtype))  # d != C


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


@pytest.mark.parametrize("k", (1, 3, 5))
@pytest.mark.parametrize("name", ("identity", "static_dwconv", "static_conv"))
def test_static_rows_equal_the_dense_backward(name, k):
    rng = Rng(1403 + k)
    for dtype in (np.float32, np.float64):
        op = _exact_operator(rng, name, k, dtype)
        x = rng.normal(0, 1, SHAPE, dtype)
        for anchor in ANCHORS:
            what = (k, dtype.__name__, anchor)
            ref = np.stack(list(jacobian_rows_generic_ref(op, x, anchor)))
            _assert_equal(conv_jacobian_probe(op, x, anchor), ref, what)
            _assert_equal(influence_map(op, x, anchor), _generic_map(op, x, anchor), what)


@pytest.mark.parametrize("dtype", (np.float32, np.float64))
def test_attention_rows_match_the_dense_backward(dtype):
    rng = Rng(1404)
    op = _toy_sa(rng, dtype)
    x = rng.normal(0, 1, SHAPE, dtype)
    for anchor in ANCHORS:
        ref = np.stack(list(jacobian_rows_generic_ref(op, x, anchor)))
        _assert_close(conv_jacobian_probe(op, x, anchor), ref, dtype, anchor)
        _assert_close(influence_map(op, x, anchor), _generic_map(op, x, anchor), dtype, anchor)


def test_attention_rows_match_central_differences():
    # at the anchor token, where the query path enters, and away from it
    rng = Rng(1405)
    op = _toy_sa(rng, np.float64)
    x = rng.normal(0, 1, SHAPE)
    anchor = (1, 7)
    j = conv_jacobian_probe(op, x, anchor)
    step = 1e-6
    for co, ci, h, w in ((0, 0, 1, 7), (3, 2, 1, 7), (2, 3, 2, 6), (1, 2, 6, 0), (3, 1, 0, 0)):
        xp, xm = x.copy(), x.copy()
        xp[0, ci, h, w] += step
        xm[0, ci, h, w] -= step
        fd = (op.forward(xp)[0, co, anchor[0], anchor[1]]
              - op.forward(xm)[0, co, anchor[0], anchor[1]]) / (2 * step)
        assert abs(j[co, ci, h, w] - fd) <= 1e-7 * max(1.0, abs(fd)), (co, ci, h, w)


@pytest.mark.parametrize("name", ("static_dwconv", "static_conv", "toy_sa"))
def test_rows_reject_an_input_of_the_wrong_width(name):
    # the probe's forward checks the width before any row is read
    rng = Rng(1406)
    op = _toy_sa(rng, np.float64) if name == "toy_sa" else _exact_operator(rng, name, 3, np.float64)
    x = rng.normal(0, 1, (1, SHAPE[1] + 1) + SHAPE[2:])
    with pytest.raises(DimensionError, match="channels"):
        conv_jacobian_probe(op, x, (0, 0))


@pytest.mark.parametrize("generator", (True, False), ids=("generator", "static"))
def test_rows_take_the_input_dtype(generator):
    # an f64 static kernel meets f32 input: the kernel's window is added
    # into rows of the input's dtype
    rng = Rng(1407)
    c = SHAPE[1]
    config = ATConvConfig(use_kernel_generator=generator,
                          static_kernel=None if generator else rng.normal(0, 1, (c, 9)))
    op = ATConv(ATConvParams.init(rng, c, 3, np.float32), config)
    x = rng.normal(0, 1, SHAPE, np.float32)
    rows = list(op.jacobian_rows(op.forward_cached(x)[1], (3, 4)))
    assert {row.dtype for row in rows} == {np.dtype(np.float32)}
