"""Deterministic pseudo-random streams for weight init, data synthesis, and
shuffling.

A 64-bit seed is scrambled splitmix-style into the state of a bank of
xoshiro256** lanes; draws interleave lane outputs round-robin. All state
transitions are unsigned 64-bit integer ops, so the raw integer and uniform
streams are identical on every platform for the same seed. Normal draws go
through Box-Muller and inherit the determinism of the process's math
library.
"""

from __future__ import annotations

import numpy as np

from .errors import ArgumentError

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64_MASK = (1 << 64) - 1

# Lane count is part of the stream definition; changing it changes every
# stream, so it is frozen.
_LANES = 256

_TWO_NEG53 = float(2.0**-53)


def _splitmix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


# xoshiro256**'s constants: the scrambler's multipliers and rotation, the
# state shift, and the state rotation, with the right shifts that complete
# each rotation
_U5, _U9, _U17 = np.uint64(5), np.uint64(9), np.uint64(17)
_U7, _U57, _U45, _U19 = np.uint64(7), np.uint64(57), np.uint64(45), np.uint64(19)


class Rng:
    """Seeded generator; equal seeds give equal draw sequences."""

    def __init__(self, seed: int):
        if not isinstance(seed, (int, np.integer)):
            raise ArgumentError(f"seed must be an integer, got {type(seed).__name__}")
        self.seed = int(seed) & _U64_MASK
        idx = np.arange(1, 4 * _LANES + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            state = _splitmix(np.uint64(self.seed) + idx * _GAMMA)
        lanes = state.reshape(_LANES, 4).T.copy()
        self._s0, self._s1, self._s2, self._s3 = lanes
        self._buf = np.empty(0, dtype=np.uint64)

    def _rounds(self, out: np.ndarray) -> None:
        """Advance every lane once per row of ``out``, a (rounds, lanes)
        uint64 array, writing each round's one u64 per lane into its row.
        The state words are updated in place, the scrambler and the
        rotations run through two scratch rows, and uint64 arithmetic
        wraps."""
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        t, u = np.empty_like(s1), np.empty_like(s1)
        with np.errstate(over="ignore"):
            for row in out:
                # row = rotl(s1 * 5, 7) * 9
                np.multiply(s1, _U5, out=t)
                np.left_shift(t, _U7, out=u)
                t >>= _U57
                np.bitwise_or(u, t, out=row)
                row *= _U9
                np.left_shift(s1, _U17, out=t)
                s2 ^= s0
                s3 ^= s1
                s1 ^= s2
                s0 ^= s3
                s2 ^= t
                # s3 = rotl(s3, 45)
                np.left_shift(s3, _U45, out=u)
                s3 >>= _U19
                s3 |= u

    def u64(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit draws."""
        if n < 0:
            raise ArgumentError(f"draw count must be >= 0, got {n}")
        short = n - self._buf.size
        if short > 0:
            fresh = np.empty((-(-short // _LANES), _LANES), dtype=np.uint64)
            self._rounds(fresh)
            self._buf = np.concatenate([self._buf, fresh.reshape(-1)])
        out, self._buf = self._buf[:n].copy(), self._buf[n:]
        return out

    def uniform(self, low: float, high: float, shape, dtype=np.float64) -> np.ndarray:
        """Uniform draws on [low, high) with 53-bit resolution."""
        shape = _as_shape(shape)
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        u = (self.u64(n) >> np.uint64(11)).astype(np.float64) * _TWO_NEG53
        out = low + (high - low) * u
        return out.reshape(shape).astype(dtype, copy=False)

    def normal(self, mean: float, std: float, shape, dtype=np.float64) -> np.ndarray:
        """Gaussian draws via Box-Muller on consecutive uniform pairs."""
        shape = _as_shape(shape)
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        pairs = -(-n // 2)
        raw = self.u64(2 * pairs)
        # +1 keeps u1 in (0, 1] so the log is finite.
        u1 = ((raw[0::2] >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * _TWO_NEG53
        u2 = (raw[1::2] >> np.uint64(11)).astype(np.float64) * _TWO_NEG53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        return (mean + std * z).reshape(shape).astype(dtype, copy=False)

    def integers(self, bound: int, shape) -> np.ndarray:
        """Draws from {0, ..., bound-1}. Modulo reduction; the bias is
        below 2**-40 for any desk-scale bound."""
        if bound <= 0:
            raise ArgumentError(f"bound must be positive, got {bound}")
        shape = _as_shape(shape)
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        return (self.u64(n) % np.uint64(bound)).astype(np.int64).reshape(shape)

    def permutation(self, n: int) -> np.ndarray:
        """A uniform permutation of range(n) (argsort of raw draws)."""
        return np.argsort(self.u64(n), kind="stable")


def _as_shape(shape) -> tuple:
    if isinstance(shape, (int, np.integer)):
        return (int(shape),)
    return tuple(int(s) for s in shape)
