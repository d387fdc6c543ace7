"""Finite-difference checks for every hand-derived backward pass.

check_vjp perturbs each input of a forward closure and compares the
analytic vector-Jacobian product against central differences. The micro
model is checked with an explicit parameter-perturbation loop since its
parameters live behind dotted names, not keyword arguments.
"""

from dataclasses import replace

import numpy as np
import pytest

from atconv.errors import ArgumentError
from atconv.gradcheck import (
    DEFAULT_TOL,
    check_vjp,
    finite_difference_grad,
    relative_error,
)
from atconv.micro import (
    BlockParams,
    GluParams,
    MicroConfig,
    MicroModel,
    block_backward,
    block_forward,
    cross_entropy,
    glu_backward,
    glu_forward,
)
from atconv.op import (
    ATConvConfig,
    ATConvParams,
    atconv_backward,
    atconv_forward,
    atconv_forward_cached,
    central_diff_backward,
    central_diff_forward,
    dkm_backward,
    dkm_forward,
    dyn_depthwise_backward,
    dyn_depthwise_forward,
    generate_kernels_backward,
    generate_kernels_forward,
)
from atconv.baselines import StaticConv, StaticDepthwise, ToySAParams, ToySelfAttention
from atconv.primitives import (
    adaptive_avg_pool_backward,
    adaptive_avg_pool_forward,
    conv1x1_backward,
    conv1x1_forward,
    gelu_backward,
    gelu_forward,
    layer_norm_backward,
    layer_norm_forward,
    linear_backward,
    linear_forward,
    sigmoid_backward,
    sigmoid_forward,
    softmax_backward,
    softmax_forward,
)
from atconv.rng import Rng


# ----------------------------------------------------------------------
# the checker itself
# ----------------------------------------------------------------------

def test_fd_grad_on_quadratic():
    x = np.array([1.0, -2.0, 3.0])
    g = finite_difference_grad(lambda v: float((v * v).sum()), x)
    assert np.abs(g - 2.0 * x).max() < 1e-8


def test_fd_grad_rejects_bad_step():
    with pytest.raises(ArgumentError):
        finite_difference_grad(lambda v: 0.0, np.zeros(2), h=0.0)


def test_relative_error_normalization():
    assert relative_error(np.array([1.0]), np.array([1.0])) == 0.0
    # small absolute gap on a tiny gradient reads as absolute error
    assert abs(relative_error(np.array([1e-6]), np.array([0.0])) - 1e-6) < 1e-18


# ----------------------------------------------------------------------
# primitives
# ----------------------------------------------------------------------

def test_conv1x1_vjp():
    rng = Rng(20)
    inputs = {
        "x": rng.normal(0, 1, (2, 3, 4, 5)),
        "w": rng.normal(0, 1, (4, 3)),
        "bias": rng.normal(0, 1, (4,)),
    }

    def vjp(gy, x, w, bias):
        _, cache = conv1x1_forward(x, w, bias)
        gx, gw, gb = conv1x1_backward(gy, cache)
        return {"x": gx, "w": gw, "bias": gb}

    report = check_vjp(lambda x, w, bias: conv1x1_forward(x, w, bias)[0], inputs, vjp)
    assert report["max"] < DEFAULT_TOL


def test_conv1x1_identity_gradient_passthrough():
    x = Rng(21).normal(0, 1, (2, 3, 4, 4))
    _, cache = conv1x1_forward(x, np.eye(3))
    gy = Rng(22).normal(0, 1, (2, 3, 4, 4))
    gx, _, _ = conv1x1_backward(gy, cache)
    assert np.array_equal(gx, gy)


def test_pool_vjp():
    inputs = {"x": Rng(23).normal(0, 1, (2, 3, 7, 5))}

    def vjp(gy, x):
        _, cache = adaptive_avg_pool_forward(x, 3)
        return {"x": adaptive_avg_pool_backward(gy, cache)}

    report = check_vjp(lambda x: adaptive_avg_pool_forward(x, 3)[0], inputs, vjp)
    assert report["max"] < DEFAULT_TOL


def test_pool_identity_gradient_passthrough():
    x = Rng(24).normal(0, 1, (1, 2, 3, 3))
    _, cache = adaptive_avg_pool_forward(x, 3)
    gy = Rng(25).normal(0, 1, (1, 2, 3, 3))
    assert np.array_equal(adaptive_avg_pool_backward(gy, cache), gy)


def test_linear_vjp():
    rng = Rng(26)
    inputs = {
        "x": rng.normal(0, 1, (2, 3, 5)),
        "w": rng.normal(0, 1, (4, 5)),
        "bias": rng.normal(0, 1, (4,)),
    }

    def vjp(gy, x, w, bias):
        _, cache = linear_forward(x, w, bias)
        gx, gw, gb = linear_backward(gy, cache)
        return {"x": gx, "w": gw, "bias": gb}

    report = check_vjp(lambda x, w, bias: linear_forward(x, w, bias)[0], inputs, vjp)
    assert report["max"] < DEFAULT_TOL


def test_gelu_vjp():
    inputs = {"x": Rng(27).normal(0, 2, (3, 4))}

    def vjp(gy, x):
        _, cache = gelu_forward(x)
        return {"x": gelu_backward(gy, cache)}

    assert check_vjp(lambda x: gelu_forward(x)[0], inputs, vjp)["max"] < DEFAULT_TOL


def test_sigmoid_vjp():
    inputs = {"x": Rng(28).normal(0, 2, (3, 4))}

    def vjp(gy, x):
        _, cache = sigmoid_forward(x)
        return {"x": sigmoid_backward(gy, cache)}

    assert check_vjp(lambda x: sigmoid_forward(x)[0], inputs, vjp)["max"] < DEFAULT_TOL


def test_softmax_vjp():
    inputs = {"x": Rng(29).normal(0, 2, (3, 5))}

    def vjp(gy, x):
        _, cache = softmax_forward(x)
        return {"x": softmax_backward(gy, cache)}

    assert check_vjp(lambda x: softmax_forward(x)[0], inputs, vjp)["max"] < DEFAULT_TOL


def test_layer_norm_vjp():
    rng = Rng(30)
    inputs = {
        "x": rng.normal(0, 2, (2, 6, 3, 3)),
        "gain": rng.uniform(0.5, 1.5, (6,)),
        "offset": rng.normal(0, 1, (6,)),
    }

    def vjp(gy, x, gain, offset):
        _, cache = layer_norm_forward(x, gain, offset)
        gx, ggain, goffset = layer_norm_backward(gy, cache)
        return {"x": gx, "gain": ggain, "offset": goffset}

    assert check_vjp(lambda x, gain, offset: layer_norm_forward(x, gain, offset)[0],
                     inputs, vjp)["max"] < DEFAULT_TOL


# ----------------------------------------------------------------------
# operator stages
# ----------------------------------------------------------------------

def test_dkm_vjp():
    rng = Rng(31)
    inputs = {
        "raw": rng.normal(0, 1, (2, 3, 3, 3)),
        "gamma": rng.normal(0, 1, (3,)),
    }

    def vjp(galpha, raw, gamma):
        _, cache = dkm_forward(raw, gamma)
        graw, ggamma = dkm_backward(galpha, cache)
        return {"raw": graw, "gamma": ggamma}

    assert check_vjp(lambda raw, gamma: dkm_forward(raw, gamma)[0],
                     inputs, vjp)["max"] < DEFAULT_TOL


def test_dkm_override_gamma_grad_is_zero():
    rng = Rng(32)
    raw = rng.normal(0, 1, (2, 3, 3, 3))
    gamma = rng.normal(0, 1, (3,))
    _, cache = dkm_forward(raw, gamma, lambda_override=0.7)
    graw, ggamma = dkm_backward(np.ones_like(raw), cache)
    assert np.array_equal(ggamma, np.zeros(3))

    # raw gradient still matches finite differences with the pinned strength
    inputs = {"raw": raw}

    def vjp(galpha, raw):
        _, c = dkm_forward(raw, gamma, lambda_override=0.7)
        g, _ = dkm_backward(galpha, c)
        return {"raw": g}

    report = check_vjp(lambda raw: dkm_forward(raw, gamma, lambda_override=0.7)[0],
                       inputs, vjp)
    assert report["max"] < DEFAULT_TOL


def test_dkm_zero_mean_raw_gives_zero_gamma_grad():
    rng = Rng(33)
    raw = rng.normal(0, 1, (2, 3, 3, 3))
    raw = raw - raw.mean(axis=(2, 3), keepdims=True)
    _, cache = dkm_forward(raw, rng.normal(0, 1, (3,)))
    _, ggamma = dkm_backward(rng.normal(0, 1, raw.shape), cache)
    assert np.abs(ggamma).max() < 1e-12


def test_central_diff_vjp():
    inputs = {"raw": Rng(34).normal(0, 1, (2, 3, 3, 3))}

    def vjp(galpha, raw):
        return {"raw": central_diff_backward(galpha, central_diff_forward(raw)[1])}

    assert check_vjp(lambda raw: central_diff_forward(raw)[0], inputs, vjp)["max"] < DEFAULT_TOL


def test_central_diff_backward_structure():
    galpha = Rng(35).normal(0, 1, (2, 2, 3, 3))
    graw = central_diff_backward(galpha, central_diff_forward(np.zeros_like(galpha))[1])
    gc = galpha[:, :, 1, 1]
    assert np.abs(graw[:, :, 1, 1]).max() == 0.0
    assert np.allclose(graw[:, :, 0, 2], galpha[:, :, 0, 2] - gc, atol=1e-15)


def test_dyn_depthwise_vjp():
    rng = Rng(36)
    inputs = {
        "v": rng.normal(0, 1, (2, 3, 5, 5)),
        "alpha": rng.normal(0, 1, (2, 3, 3, 3)),
    }

    def vjp(gy, v, alpha):
        _, cache = dyn_depthwise_forward(v, alpha)
        gv, galpha = dyn_depthwise_backward(gy, cache)
        return {"v": gv, "alpha": galpha}

    assert check_vjp(lambda v, alpha: dyn_depthwise_forward(v, alpha)[0],
                     inputs, vjp)["max"] < DEFAULT_TOL


def test_generate_kernels_vjp():
    rng = Rng(37)
    p0 = ATConvParams.init(rng, 3, 3)
    inputs = {
        "x": rng.normal(0, 1, (2, 3, 5, 5)),
        "w_f": rng.normal(0, 0.5, (3, 3)),
        "w_f_bias": rng.normal(0, 0.5, (3,)),
        "w_gen": rng.normal(0, 0.5, (9, 9)),
    }

    def fwd(x, w_f, w_f_bias, w_gen):
        p = replace(p0, w_f=w_f, w_f_bias=w_f_bias, w_gen=w_gen)
        return generate_kernels_forward(x, p)[0]

    def vjp(graw, x, w_f, w_f_bias, w_gen):
        p = replace(p0, w_f=w_f, w_f_bias=w_f_bias, w_gen=w_gen)
        _, cache = generate_kernels_forward(x, p)
        gx, grads = generate_kernels_backward(graw, cache)
        return {"x": gx, **grads}

    assert check_vjp(fwd, inputs, vjp)["max"] < DEFAULT_TOL


# ----------------------------------------------------------------------
# the full operator, one configuration per modulation kind
# ----------------------------------------------------------------------

def _atconv_vjp_report(kernel_mod, seed):
    rng = Rng(seed)
    p0 = ATConvParams.init(rng, 3, 3)
    config = ATConvConfig(kernel_mod=kernel_mod)
    names = ("w_f", "w_f_bias", "w_gen", "gamma",
             "w_value", "w_value_bias", "w_out", "w_out_bias")
    inputs = {"x": rng.normal(0, 1, (2, 3, 5, 5))}
    inputs.update({n: np.array(getattr(p0, n)) for n in names})

    def make_params(kw):
        return replace(p0, **{n: kw[n] for n in names})

    def fwd(**kw):
        return atconv_forward(kw["x"], make_params(kw), config)

    def vjp(gy, **kw):
        _, cache = atconv_forward_cached(kw["x"], make_params(kw), config)
        gx, grads = atconv_backward(gy, cache)
        grads["x"] = gx
        return {k: grads.get(k) for k in ("x", *names)}

    return check_vjp(fwd, inputs, vjp)


@pytest.mark.parametrize("kernel_mod", ["none", "softmax", "central_diff", "dkm"])
def test_atconv_end_to_end_vjp(kernel_mod):
    assert _atconv_vjp_report(kernel_mod, 40)["max"] < DEFAULT_TOL


def test_atconv_static_kernel_vjp():
    rng = Rng(41)
    p0 = ATConvParams.init(rng, 3, 3)
    inputs = {
        "x": rng.normal(0, 1, (2, 3, 5, 5)),
        "static_kernel": rng.normal(0, 1, (3, 9)),
    }

    def fwd(x, static_kernel):
        cfg = ATConvConfig(use_kernel_generator=False, kernel_mod="none",
                           static_kernel=static_kernel)
        return atconv_forward(x, p0, cfg)

    def vjp(gy, x, static_kernel):
        cfg = ATConvConfig(use_kernel_generator=False, kernel_mod="none",
                           static_kernel=static_kernel)
        _, cache = atconv_forward_cached(x, p0, cfg)
        gx, grads = atconv_backward(gy, cache)
        return {"x": gx, "static_kernel": grads["static_kernel"]}

    assert check_vjp(fwd, inputs, vjp)["max"] < DEFAULT_TOL


# ----------------------------------------------------------------------
# baselines
# ----------------------------------------------------------------------

def test_static_conv_vjp():
    rng = Rng(42)
    op = StaticConv.init(rng, 4, 3, 3)
    inputs = {"x": rng.normal(0, 1, (2, 3, 5, 5)), "w": np.array(op.w)}

    def fwd(x, w):
        return StaticConv(w, op.bias).forward(x)

    def vjp(gy, x, w):
        o = StaticConv(w, op.bias)
        y, cache = o.forward_cached(x)
        gx, gw, _ = o.backward(gy, cache)
        return {"x": gx, "w": gw}

    assert check_vjp(fwd, inputs, vjp)["max"] < DEFAULT_TOL


def test_static_depthwise_vjp():
    rng = Rng(43)
    inputs = {"x": rng.normal(0, 1, (2, 3, 5, 5)), "w": rng.normal(0, 1, (3, 3, 3))}

    def fwd(x, w):
        return StaticDepthwise(w).forward(x)

    def vjp(gy, x, w):
        o = StaticDepthwise(w)
        y, cache = o.forward_cached(x)
        gx, gw = o.backward(gy, cache)
        return {"x": gx, "w": gw}

    assert check_vjp(fwd, inputs, vjp)["max"] < DEFAULT_TOL


def test_toy_attention_vjp():
    rng = Rng(44)
    p0 = ToySAParams.init(rng, 3, tau=1.3)
    inputs = {
        "x": rng.normal(0, 1, (2, 3, 3, 3)),
        "w_q": np.array(p0.w_q), "w_k": np.array(p0.w_k),
        "w_v": np.array(p0.w_v), "w_o": np.array(p0.w_o),
    }

    def make(kw):
        return ToySelfAttention(ToySAParams(
            w_q=kw["w_q"], w_k=kw["w_k"], w_v=kw["w_v"], w_o=kw["w_o"], tau=p0.tau))

    def fwd(**kw):
        return make(kw).forward(kw["x"])

    def vjp(gy, **kw):
        op = make(kw)
        _, cache = op.forward_cached(kw["x"])
        gx, grads = op.backward(gy, cache)
        grads["x"] = gx
        return grads

    assert check_vjp(fwd, inputs, vjp)["max"] < DEFAULT_TOL


# ----------------------------------------------------------------------
# micro-model pieces
# ----------------------------------------------------------------------

def test_glu_vjp():
    rng = Rng(45)
    p0 = GluParams.init(rng, 3, expansion=4)
    names = ("w_a", "b_a", "w_b", "b_b", "w_c", "b_c")
    inputs = {"x": rng.normal(0, 1, (2, 3, 3, 3))}
    inputs.update({n: np.array(getattr(p0, n)) for n in names})

    def fwd(**kw):
        p = GluParams(**{n: kw[n] for n in names})
        return glu_forward(kw["x"], p)[0]

    def vjp(gy, **kw):
        p = GluParams(**{n: kw[n] for n in names})
        _, cache = glu_forward(kw["x"], p)
        gx, grads = glu_backward(gy, cache)
        grads["x"] = gx
        return grads

    assert check_vjp(fwd, inputs, vjp)["max"] < DEFAULT_TOL


def test_block_vjp_on_representative_parameters():
    rng = Rng(46)
    p0 = BlockParams.init(rng, 4, kernel=3, expansion=2)
    inputs = {
        "x": rng.normal(0, 1, (2, 4, 6, 6)),
        "norm1_gain": np.array(p0.norm1_gain) + 0.3,
        "mixer_w_f": np.array(p0.mixer.w_f),
        "glu_w_c": np.array(p0.glu.w_c),
    }

    def make(kw):
        return replace(p0, norm1_gain=kw["norm1_gain"],
                       mixer=replace(p0.mixer, w_f=kw["mixer_w_f"]),
                       glu=replace(p0.glu, w_c=kw["glu_w_c"]))

    def fwd(**kw):
        return block_forward(kw["x"], make(kw))[0]

    def vjp(gy, **kw):
        y, cache = block_forward(kw["x"], make(kw))
        gx, grads = block_backward(gy, cache)
        return {"x": gx, "norm1_gain": grads["norm1_gain"],
                "mixer_w_f": grads["mixer.w_f"], "glu_w_c": grads["glu.w_c"]}

    assert check_vjp(fwd, inputs, vjp)["max"] < DEFAULT_TOL


def test_block_residual_identity_when_branches_are_zeroed():
    rng = Rng(47)
    p = BlockParams.init(rng, 4, kernel=3, expansion=2)
    p.mixer.w_out = np.zeros_like(p.mixer.w_out)
    p.mixer.w_out_bias = np.zeros_like(p.mixer.w_out_bias)
    p.glu.w_c = np.zeros_like(p.glu.w_c)
    p.glu.b_c = np.zeros_like(p.glu.b_c)
    x = rng.normal(0, 1, (2, 4, 6, 6))
    y, _ = block_forward(x, p)
    assert np.array_equal(y, x)


# ----------------------------------------------------------------------
# the whole classifier, end to end through the loss
# ----------------------------------------------------------------------

def test_micro_model_end_to_end_gradients():
    rng = Rng(48)
    config = MicroConfig(in_channels=1, channels=4, blocks=2, patch=2,
                         kernel=3, expansion=2, num_classes=3)
    model = MicroModel.init(rng, config)
    x = rng.normal(0, 1, (2, 1, 8, 8))
    labels = np.array([0, 2])

    logits, cache = model.forward_cached(x)
    loss0, dlogits = cross_entropy(logits, labels)
    gx, grads = model.backward(dlogits, cache)

    def loss_now(xv):
        lg = model.forward(xv)
        return cross_entropy(lg, labels)[0]

    h = 1e-4
    worst = 0.0
    idx_rng = Rng(49)

    # parameters: a handful of coordinates from every tensor
    params = model.named_parameters()
    for name, arr in params.items():
        assert name in grads, f"no gradient produced for {name}"
        assert grads[name].shape == arr.shape
        orig = np.array(arr)
        take = min(4, orig.size)
        for i in idx_rng.integers(orig.size, (take,)):
            i = int(i)
            pert = orig.copy()
            pert.flat[i] = orig.flat[i] + h
            model.set_parameter(name, pert)
            hi = loss_now(x)
            pert2 = orig.copy()
            pert2.flat[i] = orig.flat[i] - h
            model.set_parameter(name, pert2)
            lo = loss_now(x)
            model.set_parameter(name, orig)
            fd = (hi - lo) / (2.0 * h)
            err = abs(float(grads[name].flat[i]) - fd) / max(1.0, abs(fd))
            worst = max(worst, err)

    # input coordinates
    for i in idx_rng.integers(x.size, (6,)):
        i = int(i)
        xp = x.copy()
        xp.flat[i] += h
        hi = loss_now(xp)
        xp.flat[i] = x.flat[i] - h
        lo = loss_now(xp)
        fd = (hi - lo) / (2.0 * h)
        err = abs(float(gx.flat[i]) - fd) / max(1.0, abs(fd))
        worst = max(worst, err)

    assert worst < DEFAULT_TOL, f"worst end-to-end relative error {worst:.3e}"
    assert np.isfinite(loss0)
