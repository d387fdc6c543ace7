"""The generator's streams against the whole-draw code they replaced, and
what a draw leaves allocated.

``Rng`` makes each u64 once, into its result or a block of it, and runs
``uniform`` and ``normal`` over blocks of the stream. Every call of an
interleaved sequence is compared byte for byte with ``oracles.rng_*_ref``,
the code that drew the whole u64 run into one array, together with the
leftover ``_buf`` and the four state words. The frozen lists in
``test_rng.py`` reach only round 0; this sequence runs through partial
rounds, whole rounds and many blocks.
"""

import tracemalloc

import numpy as np
import pytest

from atconv.errors import ArgumentError
from atconv.rng import _BLOCK, Rng
from oracles import (rng_integers_ref, rng_normal_ref, rng_permutation_ref, rng_u64_ref,
                     rng_uniform_ref)
from test_rebuilt_maps import DRAWS

F32, F64 = np.float32, np.float64
SEEDS = (0, 1, 2903, (1 << 64) - 1)

# (name, the library's call, the oracle's call) for a draw of ``shape``
KINDS = (
    ("u64", lambda g, s: g.u64(int(np.prod(s))), lambda g, s: rng_u64_ref(g, int(np.prod(s)))),
    ("uniform.f32", lambda g, s: g.uniform(-2.5, 3.25, s, F32),
     lambda g, s: rng_uniform_ref(g, -2.5, 3.25, s, F32)),
    ("uniform.f64", lambda g, s: g.uniform(0.65, 1.0, s), lambda g, s: rng_uniform_ref(g, 0.65, 1.0, s)),
    ("normal.f32", lambda g, s: g.normal(0.3, 1.7, s, F32),
     lambda g, s: rng_normal_ref(g, 0.3, 1.7, s, F32)),
    ("normal.f64", lambda g, s: g.normal(-1.25, 0.08, s, F64),
     lambda g, s: rng_normal_ref(g, -1.25, 0.08, s, F64)),
    ("integers", lambda g, s: g.integers(1000, s), lambda g, s: rng_integers_ref(g, 1000, s)),
    ("permutation", lambda g, s: g.permutation(int(np.prod(s))),
     lambda g, s: rng_permutation_ref(g, int(np.prod(s)))),
)
DRAW = {name: draw for name, draw, _ in KINDS}

# every DRAWS size as a flat draw, then 0-d and 4-d shapes (105 values, odd),
# a draw of one block exactly and one just past two blocks
SHAPES = [(n,) for n in DRAWS] + [(), (3, 1, 5, 7), (_BLOCK,), (2 * _BLOCK + 3,)]


def _state(g) -> bytes:
    return b"".join(getattr(g, name).tobytes() for name in ("_s0", "_s1", "_s2", "_s3"))


@pytest.mark.parametrize("seed", SEEDS)
def test_interleaved_draws_match_the_whole_draw_oracles(seed):
    rng, ref = Rng(seed), Rng(seed)
    for shape in SHAPES:
        for name, draw, oracle in KINDS:
            got, want = draw(rng, shape), oracle(ref, shape)
            where = f"{name} of {shape}"
            assert (got.dtype, got.shape) == (want.dtype, want.shape), where
            assert got.tobytes() == want.tobytes(), where
            assert rng._buf.tobytes() == ref._buf.tobytes(), where
            assert _state(rng) == _state(ref), where


@pytest.mark.parametrize("name", DRAW)
def test_the_leftover_owns_its_draws(name):
    # the leftover used to be a view of the whole u64 draw it came from
    rng = Rng(1)
    for shape in SHAPES:
        DRAW[name](rng, shape)
        assert rng._buf.base is None and rng._buf.size < 256, f"after {shape}"


def test_a_normal_draw_peaks_below_twice_its_result():
    # the whole-draw code peaked at 26 MiB for this 2 MiB result
    rng = Rng(1)
    tracemalloc.start()
    try:
        z = rng.normal(0, 1, (8, 64, 32, 32), F32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert z.nbytes == 2 << 20
    assert peak <= 2 * z.nbytes


@pytest.mark.parametrize("name", [name for name in DRAW if name not in ("u64", "permutation")])
@pytest.mark.parametrize("shape", ((-3,), (4, -1)))
def test_a_negative_dimension_is_an_argument_error(name, shape):
    with pytest.raises(ArgumentError):
        DRAW[name](Rng(0), shape)
