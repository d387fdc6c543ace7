"""Analytic cost model: FLOP and activation-byte counts.

Counting rules, applied consistently to both operators:

- one multiply-add is 2 FLOPs;
- biases and elementwise activations are excluded (they are O(NC) noise
  next to the O(NC^2) channel mixing);
- N = H * W tokens, C channels, B batch; every per-sample count is
  multiplied by B;
- bytes count live activations an implementation must hold at peak:
  attention keeps its three projected token maps plus the N x N map,
  the adaptive-kernel operator keeps one token map plus its generated
  per-channel kernels.

All counts are exact integers (Python ints, no overflow).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ArgumentError

ELT_BYTES = (2, 4, 8)

MIB = float(2**20)


@dataclass(frozen=True)
class ShapeSpec:
    """Problem size the model is evaluated at."""

    batch: int
    channels: int
    height: int
    width: int
    kernel: int = 3
    elt_bytes: int = 2

    def validate(self) -> None:
        for name in ("batch", "channels", "height", "width"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ArgumentError(f"{name} must be a positive int, got {v!r}")
        if not isinstance(self.kernel, int) or self.kernel < 1 or self.kernel % 2 == 0:
            raise ArgumentError(f"kernel must be a positive odd int, got {self.kernel!r}")
        if self.elt_bytes not in ELT_BYTES:
            raise ArgumentError(
                f"elt_bytes must be one of {ELT_BYTES}, got {self.elt_bytes!r}")

    @property
    def tokens(self) -> int:
        return self.height * self.width


def sa_flops(spec: ShapeSpec) -> dict:
    """Single-head global self-attention at width C over N tokens.

    projections: the four C x C maps (q, k, v, out) at 2NC^2 each;
    attention_map: Q K^T, 2 N^2 C; attention_apply: alpha V, 2 N^2 C.
    """
    spec.validate()
    b, c, n = spec.batch, spec.channels, spec.tokens
    proj = b * 4 * 2 * n * c * c
    amap = b * 2 * n * n * c
    aapply = b * 2 * n * n * c
    return {
        "projections": proj,
        "attention_map": amap,
        "attention_apply": aapply,
        "total": proj + amap + aapply,
    }


def atconv_flops(spec: ShapeSpec) -> dict:
    """The adaptive depthwise operator at the same width.

    context_to_kernel: pooling adds (NC), the pointwise context conv on
    the pooled K x K grid (2K^2C^2; pooling commutes with it, so it never
    runs at full resolution), the shared tap-mixing matrix applied per
    channel (2CK^4), and the kernel modulation (CK^2); conv: the depthwise
    application (2NK^2C); projections: value and output pointwise maps
    (2 * 2NC^2).
    """
    spec.validate()
    b, c, n, k = spec.batch, spec.channels, spec.tokens, spec.kernel
    ctk = b * (n * c + 2 * k * k * c * c + 2 * c * k**4 + c * k * k)
    conv = b * 2 * n * k * k * c
    proj = b * 2 * 2 * n * c * c
    return {
        "context_to_kernel": ctk,
        "conv": conv,
        "projections": proj,
        "total": ctk + conv + proj,
    }


def memory(spec: ShapeSpec) -> dict:
    """Peak live activation bytes for both operators, and the saving.

    sa_bytes = elt * (3 B N C + B N^2): q, k, v plus the attention map.
    atconv_bytes = elt * (B N C + B C K^2): one activation map plus the
    generated kernels. The reduction is 1 - atconv/sa; because the N^2
    term is gone entirely, the reduction grows with resolution.

    Unlike the FLOP counters this accepts degenerate zero-sized shapes,
    where both byte counts collapse to 0 and the reduction is reported
    as 0. Useful for algebraic sanity checks only.
    """
    for name in ("batch", "channels", "height", "width", "kernel"):
        v = getattr(spec, name)
        if not isinstance(v, int) or v < 0:
            raise ArgumentError(f"{name} must be a non-negative int, got {v!r}")
    if spec.elt_bytes not in ELT_BYTES:
        raise ArgumentError(
            f"elt_bytes must be one of {ELT_BYTES}, got {spec.elt_bytes!r}")
    b, c, n, k, e = (spec.batch, spec.channels, spec.tokens,
                     spec.kernel, spec.elt_bytes)
    sa = e * (3 * b * n * c + b * n * n)
    at = e * (b * n * c + b * c * k * k)
    return {
        "sa_bytes": sa,
        "atconv_bytes": at,
        "sa_mib": sa / MIB,
        "atconv_mib": at / MIB,
        "reduction": 1.0 - at / sa if sa > 0 else 0.0,
    }


def report(spec: ShapeSpec) -> dict:
    """Full cost report for one shape, JSON-ready."""
    spec.validate()
    return {
        "shape": {
            "batch": spec.batch,
            "channels": spec.channels,
            "height": spec.height,
            "width": spec.width,
            "kernel": spec.kernel,
            "elt_bytes": spec.elt_bytes,
            "tokens": spec.tokens,
        },
        "sa_flops": sa_flops(spec),
        "atconv_flops": atconv_flops(spec),
        "memory": memory(spec),
        "metadata": {
            "counting": ("multiply-add = 2 FLOPs; biases and activations excluded; "
                         "per-sample counts scaled by batch"),
            "memory_note": ("byte counts are an analytic accounting of live "
                            "activations, not allocator measurements; computed "
                            "reductions at larger resolutions follow this same "
                            "accounting and may differ from externally quoted "
                            "figures"),
        },
    }
