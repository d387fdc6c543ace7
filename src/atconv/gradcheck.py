"""Finite-difference validation of hand-derived backward passes.

Analytic gradients are compared against central differences of the scalar
probe L(y) = sum(y * s) for a fixed random seed tensor s, whose exact
gradient seed is s itself. The comparison statistic is

    rel_err = max|g_analytic - g_fd| / max(1, max|g_fd|)

which behaves like an absolute error near zero and a relative error for
large gradients. Checks run in float64 with step h = 1e-3; a pass is
rel_err < 1e-4.

``check_table`` lists every check ``gradcheck_report`` (``atconv
gradcheck``) runs: each primitive's and operator stage's
``(forward_cached, backward, inputs)``, which ``check_pair`` turns into a
``check_vjp`` call.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, NamedTuple

import numpy as np

from .baselines import ToySAParams, ToySelfAttention
from .errors import ArgumentError
from .micro import GluParams, glu_backward, glu_forward
from .op import (ATConvConfig, ATConvParams, KERNEL_MODS, atconv_backward,
                 atconv_forward_cached, central_diff_backward, central_diff_forward,
                 dkm_backward, dkm_forward, dyn_depthwise_backward,
                 dyn_depthwise_forward, generate_kernels_backward,
                 generate_kernels_forward)
from .primitives import (adaptive_avg_pool_backward, adaptive_avg_pool_forward,
                         conv1x1_backward, conv1x1_forward, gelu_backward,
                         gelu_forward, layer_norm_backward, layer_norm_forward,
                         linear_backward, linear_forward, sigmoid_backward,
                         sigmoid_forward, softmax_backward, softmax_forward)
from .rng import Rng

DEFAULT_STEP = 1e-3
DEFAULT_TOL = 1e-4


def finite_difference_grad(f, x: np.ndarray, h: float = DEFAULT_STEP) -> np.ndarray:
    """Central-difference gradient of scalar-valued ``f`` at ``x``.

    Perturbs every element of ``x`` by +/- h in turn, so cost is
    2 * x.size forward evaluations. Use small probes.
    """
    if h <= 0:
        raise ArgumentError(f"step must be positive, got {h}")
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = float(f(x))
        flat[i] = orig - h
        lo = float(f(x))
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * h)
    return g


def relative_error(g_analytic: np.ndarray, g_fd: np.ndarray) -> float:
    g_analytic = np.asarray(g_analytic, dtype=np.float64)
    g_fd = np.asarray(g_fd, dtype=np.float64)
    num = np.abs(g_analytic - g_fd).max() if g_analytic.size else 0.0
    den = max(1.0, np.abs(g_fd).max() if g_fd.size else 0.0)
    return float(num / den)


def check_vjp(forward, inputs: dict, vjp, seed_rng=None, h: float = DEFAULT_STEP) -> dict:
    """Compare a vector-Jacobian product against finite differences.

    forward: callable(**inputs) -> y
    vjp:     callable(gy, **inputs) -> dict of gradients, keys a subset of
             ``inputs``; entries of value None are skipped.

    Returns {input_name: rel_err} plus "max" with the worst case.
    """
    inputs = {k: np.asarray(v, dtype=np.float64) for k, v in inputs.items()}
    y0 = np.asarray(forward(**inputs))
    rng = seed_rng if seed_rng is not None else np.random.default_rng(0)
    s = rng.standard_normal(y0.shape)

    grads = vjp(s, **inputs)
    report = {}
    for name, g in grads.items():
        if g is None:
            continue

        def loss(v, _name=name):
            probe = dict(inputs)
            probe[_name] = v
            return float((np.asarray(forward(**probe)) * s).sum())

        g_fd = finite_difference_grad(loss, inputs[name], h)
        report[name] = relative_error(g, g_fd)
    report["max"] = max(report.values()) if report else 0.0
    return report


class Check(NamedTuple):
    """One finite-difference check.

    forward_cached: callable(**inputs) -> (y, cache)
    backward:       callable(gy, cache) -> the gradients of ``inputs`` in
                    order, or (g_first_input, {name: grad})
    seed_rng:       draws the probe's seed tensor s
    """
    forward_cached: Callable
    backward: Callable
    inputs: dict
    seed_rng: np.random.Generator


def check_pair(forward_cached, backward, inputs: dict, seed_rng) -> dict:
    """``check_vjp`` of a forward/backward pair; see ``Check``."""
    names = list(inputs)

    def vjp(gy, **arrays):
        out = backward(gy, forward_cached(**arrays)[1])
        if isinstance(out, tuple) and len(out) == 2 and isinstance(out[1], dict):
            return {names[0]: out[0], **out[1]}
        return dict(zip(names, out if isinstance(out, tuple) else (out,)))

    return check_vjp(lambda **arrays: forward_cached(**arrays)[0], inputs, vjp, seed_rng)


def atconv_check(config: ATConvConfig, kernel: int, seed: int) -> Check:
    """The full operator's backward on a 3-channel, 5x5 twin of ``config``,
    drawn from Rng(seed); a static kernel is drawn when the generator is off."""
    rng = Rng(seed)
    params = ATConvParams.init(rng, 3, kernel)
    inputs = {"x": rng.normal(0.0, 1.0, (1, 3, 5, 5)), **params.named()}
    if not config.use_kernel_generator:
        bound = 1.0 / (kernel * kernel)
        inputs["static_kernel"] = rng.uniform(-bound, bound, (3, kernel * kernel))

    def forward_cached(x, static_kernel=None, **named):
        cfg = config if static_kernel is None else replace(config, static_kernel=static_kernel)
        return atconv_forward_cached(x, ATConvParams.from_named(named), cfg)

    return Check(forward_cached, atconv_backward, inputs, np.random.default_rng(seed))


def check_table(seed: int = 0) -> dict:
    """{name: Check} of every primitive and stage, in report order.

    Inputs draw from Rng(seed) in table order; the probes share one
    default_rng(seed) stream in that order, except the operator checks,
    which draw from their own (see ``atconv_check``).
    """
    rng = Rng(seed)
    probe = np.random.default_rng(seed)
    t = {}
    t["conv1x1"] = Check(conv1x1_forward, conv1x1_backward, {
        "x": rng.normal(0.0, 1.0, (2, 3, 4, 4)),
        "w": rng.normal(0.0, 0.5, (5, 3)),
        "bias": rng.normal(0.0, 0.5, (5,))}, probe)
    t["adaptive_avg_pool"] = Check(
        lambda x: adaptive_avg_pool_forward(x, 3), adaptive_avg_pool_backward,
        {"x": rng.normal(0.0, 1.0, (2, 3, 5, 5))}, probe)
    t["linear"] = Check(linear_forward, linear_backward, {
        "x": rng.normal(0.0, 1.0, (4, 6)),
        "w": rng.normal(0.0, 0.5, (3, 6)),
        "bias": rng.normal(0.0, 0.5, (3,))}, probe)
    xe = rng.normal(0.0, 1.5, (3, 7))
    t["gelu"] = Check(gelu_forward, gelu_backward, {"x": xe}, probe)
    t["sigmoid"] = Check(sigmoid_forward, sigmoid_backward, {"x": xe}, probe)
    t["softmax"] = Check(softmax_forward, softmax_backward,
                         {"x": rng.normal(0.0, 1.0, (4, 9))}, probe)
    t["layer_norm"] = Check(layer_norm_forward, layer_norm_backward, {
        "x": rng.normal(0.0, 1.0, (2, 5, 3, 3)),
        "gain": rng.uniform(0.5, 1.5, (5,)),
        "offset": rng.normal(0.0, 0.5, (5,))}, probe)
    raw = rng.normal(0.0, 1.0, (2, 3, 3, 3))
    t["dkm"] = Check(dkm_forward, dkm_backward,
                     {"raw": raw, "gamma": rng.normal(0.0, 1.0, (3,))}, probe)
    t["central_diff"] = Check(central_diff_forward, central_diff_backward, {"raw": raw}, probe)
    t["dyn_depthwise"] = Check(dyn_depthwise_forward, dyn_depthwise_backward, {
        "v": rng.normal(0.0, 1.0, (2, 3, 5, 5)),
        "alpha": rng.normal(0.0, 1.0, (2, 3, 3, 3))}, probe)

    p0 = ATConvParams.init(Rng(seed + 1), 3, 3)
    t["context_to_kernel"] = Check(
        lambda x, **named: generate_kernels_forward(x, replace(p0, **named)),
        generate_kernels_backward,
        {"x": rng.normal(0.0, 1.0, (1, 3, 5, 5)),
         "w_f": p0.w_f, "w_f_bias": p0.w_f_bias, "w_gen": p0.w_gen}, probe)
    for mod in KERNEL_MODS:
        t[f"atconv[{mod}]"] = atconv_check(ATConvConfig(kernel_mod=mod), 3, seed)

    sa0 = ToySAParams.init(Rng(seed + 2), 4, d=3)

    def sa_forward_cached(x, **w):
        op = ToySelfAttention(replace(sa0, **w))
        y, cache = op.forward_cached(x)
        return y, (op, cache)

    t["toy_self_attention"] = Check(
        sa_forward_cached, lambda gy, c: c[0].backward(gy, c[1]),
        {"x": rng.normal(0.0, 1.0, (1, 4, 3, 3)),
         "w_q": sa0.w_q, "w_k": sa0.w_k, "w_v": sa0.w_v, "w_o": sa0.w_o}, probe)

    g0 = GluParams.init(Rng(seed + 3), 3, expansion=4)
    t["glu"] = Check(
        lambda x, **w: glu_forward(x, replace(g0, **w)), glu_backward,
        {"x": rng.normal(0.0, 1.0, (1, 3, 4, 4)), **vars(g0)}, probe)
    return t


def gradcheck_report(seed: int = 0, tol: float = DEFAULT_TOL) -> dict:
    """Finite-difference audit of every primitive plus the full operator."""
    checks = {name: check_pair(*c)["max"] for name, c in check_table(seed).items()}
    worst = max(checks.values())
    return {
        "seed": seed,
        "step": DEFAULT_STEP,
        "tol": tol,
        "checks": checks,
        "max_rel_err": worst,
        "pass": bool(worst < tol),
    }
