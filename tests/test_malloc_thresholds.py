"""Importing the package fixes glibc's mmap and trim thresholds, so maps
that an operator allocates and frees on every call come back from the heap
instead of faulting afresh, whatever the process freed before.

Each case runs in a fresh interpreter, whose thresholds nothing in this
test process has moved.
"""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# six live 1 MiB maps per cycle: more than glibc's raised trim threshold of
# twice one map, each as large as the largest mapping freed before it
CYCLES = """
import resource
import numpy as np
{imports}
def faults_of_a_cycle():
    f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    maps = [np.ones(1 << 17) for _ in range(6)]
    del maps
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0
print(*[faults_of_a_cycle() for _ in range(4)])
"""


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


def _faults(imports: str) -> list:
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", CYCLES.format(imports=imports)],
                         env=env, capture_output=True, text=True, check=True).stdout
    return [int(f) for f in out.split()]


@pytest.mark.skipif(not _glibc(), reason="the thresholds are glibc's")
def test_repeated_maps_come_back_from_the_heap_after_the_import():
    # 6 MiB is 1536 pages; without the import every cycle faults on each
    assert min(_faults("")[1:]) > 1000
    assert max(_faults("import atconv")[1:]) < 64
