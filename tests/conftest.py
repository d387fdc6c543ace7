import os

import pytest

# Keep BLAS pools single-threaded so timings and numerics are stable
# regardless of which test imports numpy first.
os.environ.setdefault("ATCONV_THREADS", "1")
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")


@pytest.fixture
def traced_peak():
    """The peak-memory helper every peak guard uses: ``traced_peak(fn, *args)``
    is the tracemalloc peak, in bytes, that ``atconv bench`` would measure
    for the call; arrays alive before the call are not counted."""
    from atconv.bench import _measure_peak_bytes  # numpy loads after the thread caps
    return lambda fn, *args: _measure_peak_bytes(lambda: fn(*args))
