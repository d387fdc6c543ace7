"""Spatial and spectral diagnostics for feature-map operators.

The routing diagnostics ask where an output pixel's gradient mass lives:

- influence_map: G(h, w) = sum over output channels c* and input channels
  c of |d y[0, c*, h*, w*] / d x[0, c, h, w]|, the operator's
  ``influence`` on the cache of one forward on x. By default that reduces
  one Jacobian row per c* from ``jacobian_rows``, read from the
  operator's structure. ATConv's rows are, off the anchor's k x k window,
  constant on each of the at most (2k-1)^2 cells that its pooling windows
  cut the map into, so it sums each cell once, with the same bits.
- far: fraction of G's mass strictly beyond Euclidean radius r0 of the
  anchor. A k x k conv has FAR = 0 for any r0 >= the kernel radius.
- routing_centroid: intensity-weighted centroid of G restricted to its
  top (1 - q) quantile mass.
- inhibition_map: response drop D = max(0, r - r') caused by adding a
  small bump at the anchor, where r is the channel-summed absolute
  response. Positive D marks suppression, which plain convolution cannot
  produce.

The statistics are computed directly from the definitions above; their
parameters (radius, quantile, bump size) are this library's documented
defaults rather than any external standard, and the analyze report echoes
the values it used.

Spectral diagnostics summarize an activation tensor itself:

- csc: E|x - blur(x)| / E|x|, the share of signal energy away from a
  Gaussian-smoothed copy (sigma default 1.0, radius ceil(3 sigma),
  replicate padding).
- cer: effective channel rank, exp(entropy of normalized covariance
  eigenvalues) / C, in (0, 1]; 1 means isotropic channels, 1/C means one
  direction carries everything.

Eigenvalues come from numpy's ``eigvalsh`` (LAPACK) after a square and
symmetric check, so the stack still needs nothing beyond numpy.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (ArgumentError, DegenerateMapError, DimensionError,
                     NumericError, UndefinedMetricError)
from .tensor import as_tensor4, block_ranges

EIG_CLAMP = 1e-12


# ======================================================================
# routing diagnostics
# ======================================================================

def _check_anchor(anchor, h: int, w: int) -> tuple:
    ah, aw = int(anchor[0]), int(anchor[1])
    if not (0 <= ah < h and 0 <= aw < w):
        raise ArgumentError(f"anchor {anchor} outside spatial extent {(h, w)}")
    return ah, aw


def influence_map(op, x, anchor) -> np.ndarray:
    """Absolute input-gradient mass of the output pixel at ``anchor``.

    Uses batch element 0 and sums |J| over output and input channels, so
    an operator with C identity channels scores C at the anchor.
    """
    x = as_tensor4(x)
    anchor = _check_anchor(anchor, *x.shape[2:])
    return op.influence(op.forward_cached(x)[1], anchor)


def _as_map(g) -> np.ndarray:
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != 2:
        raise DimensionError(f"map must be 2-D, got shape {g.shape}")
    if not np.isfinite(g).all():
        raise ArgumentError("map must be finite, got NaN or inf")
    return g


def far(g: np.ndarray, r0: float, anchor) -> float:
    """Fraction of map mass strictly farther than ``r0`` from ``anchor``."""
    g = _as_map(g)
    if np.any(g < 0):
        raise ArgumentError("map must be nonnegative")
    if not (math.isfinite(r0) and r0 >= 0):
        raise ArgumentError(f"radius must be finite and >= 0, got {r0}")
    h_, w_ = g.shape
    ah, aw = _check_anchor(anchor, h_, w_)
    total = g.sum()
    if total <= 0.0:
        raise DegenerateMapError("map has zero total mass")
    hh, ww = np.meshgrid(np.arange(h_), np.arange(w_), indexing="ij")
    dist = np.sqrt((hh - ah) ** 2.0 + (ww - aw) ** 2.0)
    return float(g[dist > r0].sum() / total)


def routing_centroid(g: np.ndarray, quantile: float = 0.9) -> tuple:
    """(h, w) centroid of the above-quantile portion of the map."""
    g = _as_map(g)
    if not (0.0 <= quantile < 1.0):
        raise ArgumentError(f"quantile must lie in [0, 1), got {quantile}")
    if g.sum() <= 0.0:
        raise DegenerateMapError("map has zero total mass")
    thresh = np.quantile(g, quantile)
    mask = g >= thresh
    sel = np.where(mask, g, 0.0)
    mass = sel.sum()
    if mass <= 0.0:
        raise DegenerateMapError("no mass at or above the quantile threshold")
    hh, ww = np.meshgrid(np.arange(g.shape[0]), np.arange(g.shape[1]), indexing="ij")
    return (float((hh * sel).sum() / mass), float((ww * sel).sum() / mass))


def inhibition_map(op, x, anchor, eps: float | None = None) -> np.ndarray:
    """Response drop at every pixel after bumping the anchor by ``eps``.

    eps defaults to 0.01 * RMS(x). The anchor pixel itself is zeroed
    since its own response is expected to move.
    """
    x = as_tensor4(x)
    anchor = _check_anchor(anchor, *x.shape[2:])
    return _inhibition(op, x, op.forward(x), anchor, eps)


def _inhibition(op, x, base, anchor, eps):
    """``inhibition_map`` for a checked ``x`` and ``anchor``, with ``base``
    the operator's output on ``x``."""
    ah, aw = anchor
    if eps is None:
        rms = float(np.sqrt(np.mean(x.astype(np.float64, copy=False) ** 2)))
        if rms == 0.0:
            raise UndefinedMetricError("cannot scale the probe: input is all zeros")
        eps = 0.01 * rms
    if eps <= 0:
        raise ArgumentError(f"probe amplitude must be positive, got {eps}")
    bumped = x.copy()
    bumped[0, :, ah, aw] += eps
    resp = op.forward(bumped)
    r0 = np.abs(base[0]).sum(axis=0)
    r1 = np.abs(resp[0]).sum(axis=0)
    d = np.maximum(0.0, r0 - r1)
    d[ah, aw] = 0.0
    return d


# ======================================================================
# spectral diagnostics
# ======================================================================

# Elements per block of planes in the blur: a block's padded float64 copy,
# its row-pass sums and one product buffer stay small next to the output.
_BLUR_BLOCK = 1 << 14


def gaussian_blur(x, sigma: float = 1.0) -> np.ndarray:
    """Per-channel Gaussian blur, radius ceil(3 sigma), replicate padding.

    Separable passes; identical to the dense 2-D kernel because replicate
    padding clamps each axis independently. The B*C planes are taken in
    blocks of at most ``_BLUR_BLOCK`` elements (``block_ranges``). Each
    block is edge-padded by the radius on both axes in float64; the row
    pass, then the column pass, adds kern[j] times the copy shifted by j
    into sums that start from +0, over j in order. Beyond the output, only
    one block's buffers are allocated.
    """
    x = as_tensor4(x)
    if sigma <= 0:
        raise ArgumentError(f"sigma must be positive, got {sigma}")
    r = math.ceil(3.0 * sigma)
    t = np.arange(-r, r + 1, dtype=np.float64)
    kern = np.exp(-0.5 * (t / sigma) ** 2)
    kern /= kern.sum()
    b_, c_, h_, w_ = x.shape
    n = b_ * c_
    x3 = x.reshape(n, h_, w_)
    out = np.empty_like(x3)
    for lo, hi in block_ranges(n, h_ * w_, _BLUR_BLOCK):
        xp = np.pad(x3[lo:hi].astype(np.float64, copy=False),
                    ((0, 0), (r, r), (r, r)), mode="edge")
        m = len(xp)
        # rows pass, at every padded column: rows[h] = sum_j kern[j] * x[clamp(h + j - r)]
        rows = np.zeros((m, h_, w_ + 2 * r))
        prod = np.empty_like(rows)
        for j, kj in enumerate(kern):
            np.multiply(kj, xp[:, j:j + h_], out=prod)
            rows += prod
        cols = np.zeros((m, h_, w_))
        prod = np.empty_like(cols)
        for j, kj in enumerate(kern):
            np.multiply(kj, rows[:, :, j:j + w_], out=prod)
            cols += prod
        out[lo:hi] = cols
    return out.reshape(x.shape)


def csc(x, sigma: float = 1.0) -> float:
    """Share of signal energy not captured by a Gaussian-smoothed copy."""
    x = as_tensor4(x)
    denom = float(np.abs(x.astype(np.float64, copy=False)).mean())
    if denom == 0.0:
        raise UndefinedMetricError("metric undefined for an all-zero input")
    smooth = gaussian_blur(x, sigma)
    num = float(np.abs(x.astype(np.float64, copy=False)
                       - smooth.astype(np.float64, copy=False)).mean())
    return num / denom


def sym_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, sorted descending.

    Checks the input, then calls LAPACK through ``np.linalg.eigvalsh``;
    a LAPACK failure to converge surfaces as ``NumericError``.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"matrix must be square, got shape {a.shape}")
    scale = float(np.linalg.norm(a))
    if not np.allclose(a, a.T, atol=1e-12 * max(1.0, scale), rtol=0.0):
        raise ArgumentError("matrix must be symmetric")
    try:
        lams = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigvalsh did not converge: {exc}") from exc
    return np.ascontiguousarray(lams[::-1])


def cer(x) -> float:
    """Effective channel rank: exp(spectral entropy) / C in (0, 1]."""
    x = as_tensor4(x)
    b_, c_, h_, w_ = x.shape
    n = b_ * h_ * w_
    if n < 2:
        raise UndefinedMetricError("need at least two samples for a covariance")
    samples = x.astype(np.float64, copy=False).transpose(0, 2, 3, 1).reshape(n, c_)
    centered = samples - samples.mean(axis=0, keepdims=True)
    cov = centered.T @ centered / (n - 1)
    if not np.any(cov):
        raise UndefinedMetricError("covariance is identically zero")
    lams = sym_eigenvalues(cov)
    lam_max = lams[0]
    if lam_max <= 0.0:
        raise UndefinedMetricError("covariance has no positive spectrum")
    lams = np.where(lams < EIG_CLAMP * lam_max, 0.0, lams)
    total = lams.sum()
    probs = lams / total
    nz = probs[probs > 0.0]
    entropy = float(-(nz * np.log(nz)).sum())
    return float(np.exp(entropy) / c_)


# ======================================================================
# combined report
# ======================================================================

def analyze_operator(op, x, anchor=None, r0: float = 4.0, sigma: float = 1.0,
                     quantile: float = 0.9, eps: float | None = None) -> dict:
    """Run the full diagnostic battery for one operator on one input.

    One forward on x: its cache feeds the influence map, and its output
    csc, cer and the inhibition probe's base. Returns a plain dict ready
    for JSON serialization; the maps themselves are returned under "maps"
    for callers that want to dump them.
    """
    x = as_tensor4(x)
    _, _, h_, w_ = x.shape
    if anchor is None:
        anchor = (h_ // 2, w_ // 2)
    ah, aw = _check_anchor(anchor, h_, w_)
    y, cache = op.forward_cached(x)
    g = op.influence(cache, (ah, aw))
    del cache  # the inhibition probe runs without the forward's maps
    d = _inhibition(op, x, y, (ah, aw), eps)
    centroid = routing_centroid(g, quantile)
    report = {
        "anchor": [ah, aw],
        "far": far(g, r0, (ah, aw)),
        "routing_centroid": [centroid[0], centroid[1]],
        "inhibition_total": float(d.sum()),
        "csc": csc(y, sigma),
        "cer": cer(y),
        "metadata": {
            "r0": float(r0),
            "quantile": float(quantile),
            "sigma": float(sigma),
            "probe_eps": None if eps is None else float(eps),
            "note": ("diagnostic parameters (radius, quantile, probe size) are "
                     "library defaults; csc/cer are computed on the operator output"),
        },
        "maps": {"influence": g, "inhibition": d},
    }
    return report
