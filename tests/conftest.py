import os
import tracemalloc

import pytest

# Keep BLAS pools single-threaded so timings and numerics are stable
# regardless of which test imports numpy first.
os.environ.setdefault("ATCONV_THREADS", "1")
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")


def _traced_peak(fn, *args):
    """tracemalloc peak, in bytes, of the arrays ``fn(*args)`` allocates;
    arrays alive before the call are not counted."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """The peak-memory helper every peak guard uses: ``traced_peak(fn, *args)``."""
    return _traced_peak
