"""A small residual classifier built around the adaptive operator.

Single stage: patch embedding, ``blocks`` pre-norm residual blocks, global
average pooling, linear head. Each block is

    x1  = x  + op(norm1(x))
    out = x1 + glu(norm2(x1))

where op is the adaptive depthwise operator and glu is the gated channel
MLP y = W_c ((W_a x) * gelu(W_b x)) with expansion E = expansion * C.

Parameters live in plain dataclasses; ``named_parameters`` walks their
fields into an ordered {name: array} dict that the optimizer, the
checkpoint container, and the gradient dicts all share. The dict aliases
the model's arrays, and ``adam_step`` updates them in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .errors import ArgumentError, DimensionError, StateError
from .op import ATConvConfig, ATConvParams, atconv_backward, atconv_forward_cached
from .primitives import (
    Conv1x1Cache, GeluCache, _need_cache,
    conv1x1_backward, conv1x1_forward,
    gelu_backward, gelu_forward, gelu_output,
    layer_norm_backward, layer_norm_forward, layer_norm_output,
    linear_backward, linear_forward,
)
from .rng import Rng
from .tensor import as_float, as_shaped, as_tensor4, block_ranges, need_count


# ======================================================================
# gated channel MLP
# ======================================================================

@dataclass
class GluParams:
    w_a: np.ndarray
    b_a: np.ndarray
    w_b: np.ndarray
    b_b: np.ndarray
    w_c: np.ndarray
    b_c: np.ndarray

    def __post_init__(self) -> None:
        self.validate()

    @classmethod
    def init(cls, rng: Rng, channels: int, expansion: int = 4, dtype=np.float64):
        e = expansion * channels
        if e < channels:
            raise ArgumentError(
                f"expansion width {e} must be at least the channel count {channels}")
        bi = math.sqrt(1.0 / channels)
        bo = math.sqrt(1.0 / e)
        return cls(
            w_a=rng.uniform(-bi, bi, (e, channels), dtype),
            b_a=np.zeros(e, dtype=dtype),
            w_b=rng.uniform(-bi, bi, (e, channels), dtype),
            b_b=np.zeros(e, dtype=dtype),
            w_c=rng.uniform(-bo, bo, (channels, e), dtype),
            b_c=np.zeros(channels, dtype=dtype),
        )

    def validate(self) -> None:
        """Rebind each array through ``as_float`` against its shape; E is
        w_a's row count and C w_c's. Runs once, at construction."""
        e = np.shape(self.w_a)[0] if np.ndim(self.w_a) else None
        c = np.shape(self.w_c)[0] if np.ndim(self.w_c) else None
        shapes = {"w_a": (e, c), "b_a": (e,), "w_b": (e, c), "b_b": (e,),
                  "w_c": (c, e), "b_c": (c,)}
        for name, shape in shapes.items():
            setattr(self, name, as_float(getattr(self, name), shape, name))
        if e < c:
            raise DimensionError(f"hidden width {e} smaller than channels {c}")


class GluCache(NamedTuple):
    """What ``glu_backward`` reads. Of the hidden-width maps it keeps only
    the GELU's CDF. W_a's and W_b's caches hold the GLU input x (C wide)
    and the weight and bias as cast to x's dtype, which rebuild a = W_a x
    and the GELU's input b = W_b x bit for bit. W_c's cache comes without
    its input h, which the backward rebuilds too. Inside a block, x is
    norm2's output: ``block_forward`` stores both caches without it, and
    ``block_backward`` puts the rebuilt map back for the GLU's backward
    and drops the whole cache once that backward returns."""
    ca: Conv1x1Cache
    cb: Conv1x1Cache
    cdf: np.ndarray
    cc: Conv1x1Cache


def glu_forward(x, p: GluParams):
    """y = W_c ((W_a x) * gelu(W_b x)); all maps pointwise over pixels.

    Every stage works per sample, so the GLU runs over chunks of samples,
    each chunk's hidden map within ``tensor.BLOCK`` elements
    (``block_ranges``), and each sample's bits are those of a whole-batch
    run. Per chunk: b = W_b x, its GELU, then a = W_a x: b is dropped
    before a is built, a once h = gelu(b) * a is written over the fresh
    GELU output, and h once W_c's conv returns (its cache is kept without
    it). So at most two chunk-sized hidden maps besides the CDF are alive
    at once, and none outlives its chunk. y and the CDF, the one hidden
    map the cache keeps, are whole-batch arrays that each chunk's W_c
    conv and GELU write their slices of in place (``out=``, ``cdf_out=``).
    """
    x = as_tensor4(x)
    b_, _, h_, w_ = x.shape
    e, c = p.w_a.shape
    y = np.empty((b_, c, h_, w_), dtype=x.dtype)
    cdf = np.empty((b_, e, h_, w_), dtype=x.dtype)
    for lo, hi in block_ranges(b_, e * h_ * w_):
        xs = x[lo:hi]
        braw, cb = conv1x1_forward(xs, p.w_b, p.b_b)
        h = gelu_forward(braw, cdf[lo:hi])[0]
        del braw
        a, ca = conv1x1_forward(xs, p.w_a, p.b_a)
        h *= a  # h = gate * a, written over the fresh gate
        del a
        cc = conv1x1_forward(h, p.w_c, p.b_c, y[lo:hi])[1]._replace(x=None)
        del h
    return y, GluCache(ca._replace(x=x), cb._replace(x=x), cdf, cc)


def glu_backward(gy, cache: GluCache):
    """Gradients of ``glu_forward`` w.r.t. x and the GLU's weights.

    Runs over the forward's chunks of samples. Per chunk, a and b are
    rebuilt by ``conv1x1_forward`` on the forward's arguments (the chunk
    of x, and the cast weight and bias), so they are the forward's bits.
    The gate is rebuilt once (``gelu_output``); h = gate * a goes straight
    into W_c's backward, which frees it before its gx, and gh is multiplied
    into the gate in place (a fresh product when gy is wider than the GLU,
    to keep ``result_type``) for W_a's backward. Then gh * a is written
    over gh for the GELU gradient. gy may be a view (the head's cotangent
    is a broadcast one); W_c's backward copies its chunk.

    The three weight gradients continue their running sums from chunk to
    chunk through ``conv1x1_backward``'s gw and gb, which add sample after
    sample; so they equal one whole-batch call's bits.
    """
    ca, cb, cdf, cc = _need_cache(cache, "glu")
    x = ca.x
    b_, _, h_, w_ = x.shape
    gy = as_shaped(gy, (b_, cc.w.shape[0], h_, w_), "gy")
    gx = np.empty(x.shape, dtype=np.result_type(x, gy))
    gw_a = gb_a = gw_b = gb_b = gw_c = gb_c = None
    for lo, hi in block_ranges(b_, cdf[0].size):
        cas, cbs = ca._replace(x=x[lo:hi]), cb._replace(x=x[lo:hi])
        a = conv1x1_forward(*cas)[0]
        cg = GeluCache(conv1x1_forward(*cbs)[0], cdf[lo:hi])
        ga = gelu_output(cg)  # the gate, then W_a's cotangent gh * gate
        gh, gw_c, gb_c = conv1x1_backward(gy[lo:hi], cc._replace(x=ga * a), gw_c, gb_c)
        if np.result_type(gh, ga) == ga.dtype:
            ga *= gh
        else:
            ga = gh * ga
        gxs, gw_a, gb_a = conv1x1_backward(ga, cas, gw_a, gb_a)
        del ga
        gh *= a  # gh is fresh and at least as wide as a
        del a
        gbraw = gelu_backward(gh, cg)
        del gh, cg
        gx_b, gw_b, gb_b = conv1x1_backward(gbraw, cbs, gw_b, gb_b)
        del gbraw
        np.add(gxs, gx_b, out=gx[lo:hi])
    grads = {"w_a": gw_a, "b_a": gb_a, "w_b": gw_b, "b_b": gb_b,
             "w_c": gw_c, "b_c": gb_c}
    return gx, grads


# ======================================================================
# residual block
# ======================================================================

@dataclass
class BlockParams:
    norm1_gain: np.ndarray
    norm1_offset: np.ndarray
    mixer: ATConvParams
    norm2_gain: np.ndarray
    norm2_offset: np.ndarray
    glu: GluParams

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Rebind each norm array through ``as_float`` against the
        mixer's width C, which the GLU must share. The mixer and the GLU
        checked their own arrays at their construction. Runs once, at
        construction."""
        c = self.mixer.channels
        for name in ("norm1_gain", "norm1_offset", "norm2_gain", "norm2_offset"):
            setattr(self, name, as_float(getattr(self, name), (c,), name))
        if self.glu.w_c.shape[0] != c:
            raise DimensionError(
                f"glu width {self.glu.w_c.shape[0]} differs from the mixer's {c}")

    @classmethod
    def init(cls, rng: Rng, channels: int, kernel: int = 3, expansion: int = 4,
             dtype=np.float64):
        return cls(
            norm1_gain=np.ones(channels, dtype=dtype),
            norm1_offset=np.zeros(channels, dtype=dtype),
            mixer=ATConvParams.init(rng, channels, kernel, dtype),
            norm2_gain=np.ones(channels, dtype=dtype),
            norm2_offset=np.zeros(channels, dtype=dtype),
            glu=GluParams.init(rng, channels, expansion, dtype),
        )


class StageCaches:
    """A forward's stage caches, ``caches`` (None once spent), which serve
    one backward.

    ``shape`` is the forward's output shape. ``spend`` checks the
    backward's cotangent against it first, so a wrong cotangent raises
    DimensionError whether or not the caches are spent. It then hands the
    caches out and keeps no reference to them, as autograd frameworks
    free saved tensors after one backward: the backward drops each stage's
    cache once that stage is done, and a second backward raises StateError
    naming the stage.
    """

    def __init__(self, stage: str, shape: tuple, caches: list):
        self.stage, self.shape, self.caches = stage, shape, caches

    def spend(self, gy, name: str = "gy"):
        """(gy checked against ``shape``, the stage caches)."""
        gy = as_shaped(gy, self.shape, name)
        if self.caches is None:
            raise StateError(f"{self.stage}_backward got a spent cache: "
                             f"{self.stage}_forward's cache serves one backward")
        caches, self.caches = self.caches, None
        return gy, caches


def block_forward(x, p: BlockParams, config: Optional[ATConvConfig] = None):
    """out = x1 + glu(norm2(x1)), x1 = x + mixer(norm1(x)).

    The cache holds each norm's x-hat but neither norm's output n: the
    mixer's value projection and the GLU's two input projections keep
    their weights without their input, and ``block_backward`` rebuilds n
    from x-hat with ``layer_norm_output``. The depthwise stage keeps its
    kernels without its input v, the value projection of n1, which the
    backward rebuilds from n1 too. Without a value projection v is n1
    itself, so the depthwise stage keeps it. mix, n1 and n2 are dropped
    at their last use here, and the second residual is added into x1 in
    place: every stage of the GLU path keeps its input's dtype, so g has
    x1's.
    """
    config = config if config is not None else ATConvConfig()
    n1, c_n1 = layer_norm_forward(x, p.norm1_gain, p.norm1_offset)
    mix, c_mix = atconv_forward_cached(n1, p.mixer, config)
    del n1
    if c_mix.value is not None:
        c_mix = replace(c_mix, value=c_mix.value._replace(x=None),
                        dd=c_mix.dd._replace(v=None))
    x1 = x + mix
    del mix
    n2, c_n2 = layer_norm_forward(x1, p.norm2_gain, p.norm2_offset)
    g, c_glu = glu_forward(n2, p.glu)
    del n2
    c_glu = c_glu._replace(ca=c_glu.ca._replace(x=None), cb=c_glu.cb._replace(x=None))
    x1 += g
    return x1, StageCaches("block", x1.shape, [c_n1, c_mix, c_n2, c_glu])


def block_backward(gy, cache: StageCaches):
    """Gradients of ``block_forward`` w.r.t. x and the block's weights.

    Spends the cache (``StageCaches``): each stage's cache is dropped once
    that stage's backward returns. norm2's output n2 is rebuilt just
    before the GLU's backward and norm1's n1 before the mixer's (when its
    value projection left it out), each from its norm's cache, and dropped
    after that backward. With the value projection, the depthwise stage's
    v is rebuilt from n1 as well, by ``conv1x1_forward`` on the arguments
    the forward used (n1, and the weight and bias as cast), so it has the
    forward's bits.
    """
    gy, (c_n1, c_mix, c_n2, c_glu) = _need_cache(cache, "block").spend(gy)
    n2 = layer_norm_output(c_n2)
    c_glu = c_glu._replace(ca=c_glu.ca._replace(x=n2), cb=c_glu.cb._replace(x=n2))
    del n2
    gn2, glu_grads = glu_backward(gy, c_glu)
    del c_glu
    gx1_from_norm, g2_gain, g2_offset = layer_norm_backward(gn2, c_n2)
    del gn2, c_n2
    gx1 = gy + gx1_from_norm
    del gx1_from_norm
    if c_mix.value is not None:
        value = c_mix.value._replace(x=layer_norm_output(c_n1))
        c_mix = replace(c_mix, value=value, dd=c_mix.dd._replace(v=conv1x1_forward(*value)[0]))
        del value
    gn1, mix_grads = atconv_backward(gx1, c_mix)
    del c_mix
    gx_from_norm, g1_gain, g1_offset = layer_norm_backward(gn1, c_n1)
    del gn1, c_n1
    gx = gx1 + gx_from_norm
    grads = {"norm1_gain": g1_gain, "norm1_offset": g1_offset,
             "norm2_gain": g2_gain, "norm2_offset": g2_offset}
    grads.update({f"mixer.{k}": v for k, v in mix_grads.items()})
    grads.update({f"glu.{k}": v for k, v in glu_grads.items()})
    return gx, grads


# ======================================================================
# patch embedding
# ======================================================================

def _patchify(x, patch: int):
    b_, c_, h_, w_ = x.shape
    hp, wp = h_ // patch, w_ // patch
    # (B, C, Hp, P, Wp, P) -> (B, C, P, P, Hp, Wp) -> (B, C*P*P, Hp, Wp)
    t = x.reshape(b_, c_, hp, patch, wp, patch).transpose(0, 1, 3, 5, 2, 4)
    return np.ascontiguousarray(t.reshape(b_, c_ * patch * patch, hp, wp))


def _unpatchify(g, in_shape, patch: int):
    b_, c_, h_, w_ = in_shape
    hp, wp = h_ // patch, w_ // patch
    t = g.reshape(b_, c_, patch, patch, hp, wp).transpose(0, 1, 4, 2, 5, 3)
    return np.ascontiguousarray(t.reshape(b_, c_, h_, w_))


def patch_embed_forward(x, w, bias, patch: int):
    """Non-overlapping patch projection: fold each patch into channels,
    then mix pointwise. The cache keeps the input, which the caller holds
    anyway, rather than its folded copy, and the backward folds it again."""
    x = as_tensor4(x)
    if x.shape[2] % patch or x.shape[3] % patch:
        raise DimensionError(
            f"spatial size {x.shape[2:]} not divisible by patch {patch}")
    y, sub = conv1x1_forward(_patchify(x, patch), w, bias)
    return y, (sub._replace(x=None), x, patch)


def patch_embed_backward(gy, cache):
    sub, x, patch = _need_cache(cache, "patch_embed")
    gcols, gw, gb = conv1x1_backward(gy, sub._replace(x=_patchify(x, patch)))
    return _unpatchify(gcols, x.shape, patch), gw, gb


# ======================================================================
# the classifier
# ======================================================================

@dataclass
class MicroConfig:
    in_channels: int = 1
    channels: int = 32
    blocks: int = 2
    patch: int = 4
    kernel: int = 3
    expansion: int = 4
    num_classes: int = 10

    def validate(self) -> None:
        for name in ("in_channels", "channels", "blocks", "patch", "expansion", "num_classes"):
            need_count(getattr(self, name), name)


def _parameter_slots(node, prefix: str = ""):
    """(name, owner, field) of each parameter under the dataclass ``node``,
    in field order: an array field is one, and a list or dataclass field a
    subtree, ``<field>.<i>.`` or ``<field>.``. The settings are no subtree:
    op_config's static_kernel is an array but not a parameter."""
    for f in fields(node):
        value = getattr(node, f.name)
        if isinstance(value, np.ndarray):
            yield prefix + f.name, node, f.name
        elif isinstance(value, list):
            for i, child in enumerate(value):
                yield from _parameter_slots(child, f"{prefix}{f.name}.{i}.")
        elif is_dataclass(value) and f.name not in ("config", "op_config"):
            yield from _parameter_slots(value, f"{prefix}{f.name}.")


@dataclass
class MicroModel:
    config: MicroConfig
    embed_w: np.ndarray
    embed_b: np.ndarray
    blocks: list
    head_w: np.ndarray
    head_b: np.ndarray
    op_config: ATConvConfig = field(default_factory=ATConvConfig)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Rebind the embedding and head arrays through ``as_float``
        against the config's widths, and check each block's width. The
        blocks checked their own arrays at their construction. Runs once,
        at construction."""
        cfg = self.config
        cfg.validate()
        c, nc = cfg.channels, cfg.num_classes
        shapes = {"embed_w": (c, cfg.in_channels * cfg.patch * cfg.patch),
                  "embed_b": (c,), "head_w": (nc, c), "head_b": (nc,)}
        for name, shape in shapes.items():
            setattr(self, name, as_float(getattr(self, name), shape, name))
        for i, bp in enumerate(self.blocks):
            if bp.mixer.channels != c:
                raise DimensionError(
                    f"blocks.{i} has width {bp.mixer.channels}, the config {c}")

    @classmethod
    def init(cls, rng: Rng, config: MicroConfig,
             op_config: Optional[ATConvConfig] = None, dtype=np.float64):
        """Head starts at zero so the initial loss is exactly the uniform
        cross-entropy ln(num_classes)."""
        config.validate()
        fan_in = config.in_channels * config.patch * config.patch
        bound = math.sqrt(1.0 / fan_in)
        return cls(
            config=config,
            embed_w=rng.uniform(-bound, bound, (config.channels, fan_in), dtype),
            embed_b=np.zeros(config.channels, dtype=dtype),
            blocks=[BlockParams.init(rng, config.channels, config.kernel,
                                     config.expansion, dtype)
                    for _ in range(config.blocks)],
            head_w=np.zeros((config.num_classes, config.channels), dtype=dtype),
            head_b=np.zeros(config.num_classes, dtype=dtype),
            op_config=op_config if op_config is not None else ATConvConfig(),
        )

    def forward(self, x):
        """The logits alone. Each stage's cache is dropped as soon as the
        stage returns, so at most one block's caches are alive at a time."""
        x = as_tensor4(x)
        h = patch_embed_forward(x, self.embed_w, self.embed_b, self.config.patch)[0]
        for bp in self.blocks:
            h = block_forward(h, bp, self.op_config)[0]
        return linear_forward(h.mean(axis=(2, 3)), self.head_w, self.head_b)[0]

    def forward_cached(self, x):
        """(logits, cache); the cache serves one ``backward``."""
        x = as_tensor4(x)
        h, c_embed = patch_embed_forward(x, self.embed_w, self.embed_b, self.config.patch)
        block_caches = []
        for bp in self.blocks:
            h, bc = block_forward(h, bp, self.op_config)
            block_caches.append(bc)
        feats = h.mean(axis=(2, 3))
        logits, c_head = linear_forward(feats, self.head_w, self.head_b)
        return logits, StageCaches("micro_model", logits.shape,
                                   [c_embed, block_caches, h.shape, c_head])

    def backward(self, dlogits, cache):
        """(gx, grads). Spends the cache (``StageCaches``): each block's
        cache is taken out of it and handed to ``block_backward``, which
        spends it in turn, so a block's maps are freed as soon as its
        backward is done with them."""
        dlogits, (c_embed, block_caches, h_shape, c_head) = _need_cache(
            cache, "micro_model").spend(dlogits, "dlogits")
        gfeats, gw_head, gb_head = linear_backward(dlogits, c_head)
        area = h_shape[2] * h_shape[3]
        gh = np.broadcast_to((gfeats / area)[:, :, None, None], h_shape)
        grads = {"head_w": gw_head, "head_b": gb_head}
        for i in reversed(range(len(self.blocks))):
            gh, bgrads = block_backward(gh, block_caches.pop())
            grads.update({f"blocks.{i}.{k}": v for k, v in bgrads.items()})
        gx, gw_embed, gb_embed = patch_embed_backward(gh, c_embed)
        grads["embed_w"] = gw_embed
        grads["embed_b"] = gb_embed
        return gx, grads

    def named_parameters(self) -> dict:
        return {name: getattr(owner, attr) for name, owner, attr in _parameter_slots(self)}

    def set_parameter(self, name: str, value) -> None:
        """Rebind parameter ``name`` through ``as_float`` at the replaced
        array's shape and dtype; a conforming array is bound itself."""
        for slot, owner, attr in _parameter_slots(self):
            if slot == name:
                old = getattr(owner, attr)
                setattr(owner, attr, as_float(value, old.shape, name, old.dtype))
                return
        raise ArgumentError(f"the model has no parameter named {name!r}")

    def param_count(self) -> int:
        return sum(int(v.size) for v in self.named_parameters().values())


# ======================================================================
# loss and optimizer
# ======================================================================

def cross_entropy(logits, labels):
    """Mean softmax cross-entropy and its gradient w.r.t. the logits.

    Stabilized with log-sum-exp; gradient is (softmax - onehot) / B.
    """
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise DimensionError(f"logits must be (B, classes), got {logits.shape}")
    b_, nc = logits.shape
    if b_ == 0:
        raise DimensionError(f"cross_entropy got an empty batch: logits of shape {logits.shape}")
    if labels.shape != (b_,):
        raise DimensionError(f"labels must be ({b_},), got {labels.shape}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ArgumentError(f"labels must have an integer dtype, got {labels.dtype}")
    if labels.min() < 0 or labels.max() >= nc:
        raise ArgumentError("labels out of range for the class count")
    shifted = logits - logits.max(axis=1, keepdims=True)
    soft = np.exp(shifted)
    total = soft.sum(axis=1, keepdims=True)
    picked = shifted[np.arange(b_), labels]
    loss = float((np.log(total[:, 0]) - picked).mean())
    soft /= total
    soft[np.arange(b_), labels] -= 1.0
    return loss, soft / b_


@dataclass
class AdamHyper:
    lr: float = 3e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise ArgumentError naming the first field out of its range: lr
        and weight_decay finite and >= 0, beta1 and beta2 in [0, 1), eps
        finite and > 0. Runs once, at construction."""
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
                raise ArgumentError(f"{f.name} must be a real number, got {value!r}")
        rules = (("lr", "finite and >= 0", 0.0 <= self.lr < math.inf),
                 ("beta1", "in [0, 1)", 0.0 <= self.beta1 < 1.0),
                 ("beta2", "in [0, 1)", 0.0 <= self.beta2 < 1.0),
                 ("eps", "finite and > 0", 0.0 < self.eps < math.inf),
                 ("weight_decay", "finite and >= 0", 0.0 <= self.weight_decay < math.inf))
        for name, rule, ok in rules:
            if not ok:
                raise ArgumentError(f"{name} must be {rule}, got {getattr(self, name)!r}")


def adam_init(params: dict) -> dict:
    """Adam's state: the step count, both moments, and ``"start"``, a copy
    of ``params`` that ``adam_step`` refills before each update."""
    return {
        "t": 0,
        "m": {k: np.zeros_like(v) for k, v in params.items()},
        "v": {k: np.zeros_like(v) for k, v in params.items()},
        "start": {k: v.copy() for k, v in params.items()},
    }


def adam_step(params: dict, grads: dict, state: dict, hyper: AdamHyper) -> dict:
    """One decoupled-weight-decay Adam update, in place; returns ``params``.

    Every parameter array and its moment estimates in ``state`` are
    updated in place, so arrays that alias them (a model's
    ``named_parameters()``) see the step. Weight decay is applied directly
    to the parameter, outside the moment estimates. Parameters without a
    gradient entry are left untouched. Each parameter is first copied into
    ``state["start"]``, so it holds what the last update started from.
    """
    state["t"] += 1
    t = state["t"]
    b1, b2 = hyper.beta1, hyper.beta2
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    for name, p in params.items():
        np.copyto(state["start"][name], p)
        g = grads.get(name)
        if g is None:
            continue
        m, v = state["m"][name], state["v"][name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        step = (m / bc1) / (np.sqrt(v / bc2) + hyper.eps)
        if hyper.weight_decay:
            step += hyper.weight_decay * p
        p -= hyper.lr * step
    return params
