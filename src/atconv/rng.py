"""Deterministic pseudo-random streams for weight init, data synthesis, and
shuffling.

A 64-bit seed is scrambled splitmix-style into the state of a bank of
xoshiro256** lanes; draws interleave lane outputs round-robin. All state
transitions are unsigned 64-bit integer ops, so the raw integer and uniform
streams are identical on every platform for the same seed. Normal draws go
through Box-Muller and inherit the determinism of the process's math
library.

Each u64 is made once, in place. The round loop only records each round's
s1 into its output row and steps the state; the scrambler then runs in bulk
over blocks of rows. ``u64`` writes rounds straight into its result, and
``uniform`` and ``normal`` read the stream in blocks of ``_BLOCK`` draws,
writing each block's values into the result, so no draw builds an array the
size of the whole draw. The draws a call leaves unread of its last round
carry over to the next call. How a draw is split into blocks or calls moves
no bit: the stream is the same u64 sequence, and every step after it is
elementwise.
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


# xoshiro256**'s constants, as 0-d arrays, which a ufunc takes in less
# time than numpy scalars: the scrambler's multipliers and rotation, the
# state rotation's right shift, and the 53-bit mantissa shift and the +1 of
# the uniforms. The two left shifts, s1's by 17 and s3's by 45, run as one
# call over the state's rows 1 and 3.
_U1, _U5, _U9, _U7, _U57, _U19, _U11 = (np.array(k, dtype=np.uint64)
                                        for k in (1, 5, 9, 7, 57, 19, 11))
_LEFT_SHIFTS = np.array([[17], [45]], dtype=np.uint64)

# Rounds per block: the scrambler, and ``uniform``'s and ``normal``'s reads
# of the stream, run over this many rounds at a time, 96 KiB of u64, erf's
# byte step. So no temporary is the size of a whole draw, and each stays in
# cache.
_BLOCK_ROUNDS = 48
_BLOCK = _BLOCK_ROUNDS * _LANES


class Rng:
    """Seeded generator; equal seeds give equal draw sequences.

    Every draw reads the one u64 stream: each round advances every lane
    once and gives one u64 per lane, in lane order. A round's draws that a
    call leaves unread are kept in ``_buf``, an array of their own (255 at
    most), and open the next call."""

    def __init__(self, seed: int):
        if not isinstance(seed, (int, np.integer)):
            raise ArgumentError(f"seed must be an integer, got {type(seed).__name__}")
        self.seed = int(seed) & _U64_MASK
        idx = np.arange(1, 4 * _LANES + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            state = _splitmix(np.uint64(self.seed) + idx * _GAMMA)
        self._state = state.reshape(_LANES, 4).T.copy()
        self._s0, self._s1, self._s2, self._s3 = self._state
        self._buf = np.empty(0, dtype=np.uint64)

    def _rounds(self, out: np.ndarray) -> None:
        """Advance every lane once per row of ``out``, a C-contiguous
        (rounds, lanes) uint64 array, writing each round's one u64 per lane
        into its row.

        The round loop only records s1 into the row and steps the state
        words in place, in six calls on the (4, lanes) state: s2 ^= s0 and
        s3 ^= s1 are one call, and so are s1's and s3's left shifts. s3's
        rotation ORs in the bits its right shift cleared, so it is an XOR,
        and shares a call with s2 ^= s1 << 17. The scrambler,
        rotl(s1 * 5, 7) * 9, then runs once over each ``_BLOCK_ROUNDS``
        rows. uint64 arithmetic wraps."""
        state = self._state
        s0, s1, s2, s3 = state
        low, high, odd = state[:2], state[2:], state[1::2]
        shifted = np.empty((2, _LANES), dtype=np.uint64)
        scratch = np.empty((min(_BLOCK_ROUNDS, len(out)), _LANES), dtype=np.uint64)
        with np.errstate(over="ignore"):
            for lo in range(0, len(out), _BLOCK_ROUNDS):
                block = out[lo:lo + _BLOCK_ROUNDS]
                for row in block:
                    row[...] = s1
                    high ^= low  # s2 ^= s0, s3 ^= s1
                    np.left_shift(odd, _LEFT_SHIFTS, out=shifted)  # s1 << 17, s3 << 45
                    s1 ^= s2
                    s0 ^= s3
                    s3 >>= _U19
                    high ^= shifted  # s2 ^= s1 << 17, s3 = rotl(s3, 45)
                u = scratch[:len(block)]
                block *= _U5
                np.left_shift(block, _U7, out=u)
                block >>= _U57
                block |= u
                block *= _U9

    def _fill(self, out: np.ndarray) -> None:
        """Write the stream's next ``out.size`` u64 into ``out``, a 1-D
        contiguous uint64 array: the leftover first, then whole rounds
        straight into ``out``, then the head of one more round, whose rest
        becomes the leftover."""
        n, buf = out.size, self._buf
        k = min(n, buf.size)
        out[:k] = buf[:k]
        rest = out[k:]
        whole = rest.size - rest.size % _LANES
        self._rounds(rest[:whole].reshape(-1, _LANES))
        tail = rest[whole:]
        if tail.size:
            last = np.empty((1, _LANES), dtype=np.uint64)
            self._rounds(last)
            tail[...] = last[0, :tail.size]
            self._buf = last[0, tail.size:].copy()
        elif k:
            self._buf = buf[k:].copy()

    def u64(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit draws."""
        if n < 0:
            raise ArgumentError(f"draw count must be >= 0, got {n}")
        out = np.empty(n, dtype=np.uint64)
        self._fill(out)
        return out

    def uniform(self, low: float, high: float, shape, dtype=np.float64) -> np.ndarray:
        """Uniform draws on [low, high) with 53-bit resolution: low + (high
        - low) * (u >> 11) * 2**-53 for each u64 u, computed in float64
        over blocks of ``_BLOCK`` draws and cast to ``dtype``."""
        shape = _as_shape(shape)
        out = np.empty(shape, dtype=dtype)
        flat = out.reshape(-1)
        raw = np.empty(min(flat.size, _BLOCK), dtype=np.uint64)
        u = np.empty(raw.size)
        for lo in range(0, flat.size, _BLOCK):
            m = min(_BLOCK, flat.size - lo)
            r, v = raw[:m], u[:m]
            self._fill(r)
            r >>= _U11
            np.multiply(r, _TWO_NEG53, out=v)
            v *= high - low
            v += low
            flat[lo:lo + m] = v
        return out

    def normal(self, mean: float, std: float, shape, dtype=np.float64) -> np.ndarray:
        """Gaussian draws via Box-Muller on consecutive u64 pairs (u1, u2):
        r = sqrt(-2 log(((u1 >> 11) + 1) * 2**-53)), with the +1 keeping
        the log finite, and theta = 2 pi (u2 >> 11) * 2**-53. A draw of n
        values takes p = ceil(n / 2) pairs; its first p values are
        mean + std * r cos(theta), pair by pair, and the rest are
        mean + std * r sin(theta) of its first n - p pairs. The pairs are
        read in blocks of ``_BLOCK`` u64, computed in float64 and each
        block's values cast into the result's ``dtype``."""
        shape = _as_shape(shape)
        out = np.empty(shape, dtype=dtype)
        flat = out.reshape(-1)
        n = flat.size
        pairs = -(-n // 2)
        step = _BLOCK // 2
        raw = np.empty(2 * min(pairs, step), dtype=np.uint64)
        half = np.empty(raw.size // 2, dtype=np.uint64)
        r, theta, z = (np.empty(half.size) for _ in range(3))
        for lo in range(0, pairs, step):
            m = min(step, pairs - lo)
            pair, h, rm, tm, zm = raw[:2 * m], half[:m], r[:m], theta[:m], z[:m]
            self._fill(pair)
            np.right_shift(pair[0::2], _U11, out=h)
            h += _U1
            np.multiply(h, _TWO_NEG53, out=rm)
            np.log(rm, out=rm)
            rm *= -2.0
            np.sqrt(rm, out=rm)
            np.right_shift(pair[1::2], _U11, out=h)
            np.multiply(h, _TWO_NEG53, out=tm)
            tm *= 2.0 * np.pi
            # the cos half, then the sin half, which is one short when n is odd
            for dst, wave in ((flat[lo:lo + m], np.cos), (flat[pairs + lo:pairs + lo + m], np.sin)):
                zk = zm[:dst.size]
                wave(tm[:dst.size], out=zk)
                zk *= rm[:dst.size]
                zk *= std
                zk += mean
                dst[...] = zk
        return out

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
    dims = (int(shape),) if isinstance(shape, (int, np.integer)) else tuple(int(s) for s in shape)
    if any(d < 0 for d in dims):
        raise ArgumentError(f"draw shape must have no negative dimension, got {dims}")
    return dims
