"""The bit contract: ``tools/output_hashes.py`` run under one OpenBLAS
kernel set gives, entry by entry, the object committed for that set in
``tools/hashes/<core>.json``.

A change meant to be bit for bit leaves every entry equal, and this test
names each entry that moved. A deliberate bit change regenerates the file
(see the tool's docstring), so its diff shows what moved. The kernel set
is forced with ``OPENBLAS_CORETYPE`` in the tool's own process only, so the
host's default kernels do not matter; a CPU that cannot run the set skips
with the reason. The file is stamped with the numpy and OpenBLAS versions
it was made with, and other versions fail as a toolchain change, not a
code change. Each kernel set has its own file and run, about 8 s each.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "output_hashes.py"
# each kernel set and the CPU flag it needs
CORES = (("SkylakeX", "avx512f"), ("Haswell", "avx2"))
VERSIONS = ("numpy.version", "blas.version")


def _cpu_flags():
    """The CPU's feature flags, or None where /proc/cpuinfo cannot be read."""
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return None
    return {flag for line in text.splitlines() if line.startswith("flags")
            for flag in line.split(":", 1)[1].split()}


@pytest.mark.parametrize("core,flag", CORES, ids=[core for core, _ in CORES])
def test_outputs_equal_the_committed_hashes(core, flag):
    flags = _cpu_flags()
    if flags is None:
        pytest.skip(f"cannot tell whether the CPU runs {core} kernels: no /proc/cpuinfo")
    if flag not in flags:
        pytest.skip(f"the CPU lacks {flag}, which OpenBLAS's {core} kernels need")
    want = json.loads((ROOT / "tools" / "hashes" / f"{core}.json").read_text())
    env = dict(os.environ, OPENBLAS_CORETYPE=core)
    proc = subprocess.run([sys.executable, str(TOOL)], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    if got["blas.core"] is None:
        pytest.skip("numpy bundles no OpenBLAS, so the kernel set cannot be forced")
    assert got["blas.core"] == core, (
        f"OpenBLAS ran {got['blas.core']} kernels under OPENBLAS_CORETYPE={core}")
    stale = [f"{k} {got[k]} (the file has {want.get(k)})"
             for k in VERSIONS if got[k] != want.get(k)]
    if stale:
        pytest.fail("the toolchain moved, not the code: " + "; ".join(stale)
                    + f"; tools/hashes/{core}.json holds for its own versions only: "
                    "regenerate it from a known-good commit under this toolchain")
    moved = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    assert not moved, f"{len(moved)} of {len(want)} entries moved: " + ", ".join(moved)
