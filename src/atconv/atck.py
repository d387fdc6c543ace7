"""ATCK checkpoint container.

Layout, all multi-byte integers little-endian:

    bytes 0..3   magic b"ATCK"
    bytes 4..7   u32 format version (currently 1)
    bytes 8..11  u32 header length in bytes
    header       UTF-8 JSON: {"entries": [{"name", "dtype", "shape"}, ...]}
    payloads     raw array bytes, little-endian, in entry order

dtype strings are "f32" and "f64". Entry order is preserved, so a file
round-trips to an equal dict in the same order.
"""

from __future__ import annotations

import json
import os
import struct
import threading

import numpy as np

from .errors import FormatError

MAGIC = b"ATCK"
VERSION = 1

_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}
_DTYPE_NAMES = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}


def save_atck(path, arrays: dict) -> None:
    """Write named float arrays to ``path`` in ATCK layout, atomically.

    The file is written and synced under a temporary name in the same
    directory, then renamed over ``path``, and the directory is synced so
    the new name survives a power loss. If anything fails before the
    rename, the temporary file is removed and whatever was at ``path`` is
    left untouched. A process killed outright (SIGKILL, power loss) before
    the rename can leave a stray ``<path>.<pid>.<thread>.tmp`` file behind;
    ``path`` itself is still the old file.
    """
    entries = []
    payloads = []
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        if arr.dtype not in _DTYPE_NAMES:
            raise FormatError(f"entry {name!r} has unsupported dtype {arr.dtype}")
        dtype_name = _DTYPE_NAMES[arr.dtype]
        entries.append({"name": str(name), "dtype": dtype_name, "shape": list(arr.shape)})
        payloads.append(np.ascontiguousarray(arr).astype(_DTYPES[dtype_name]).tobytes())
    header = json.dumps({"entries": entries}).encode("utf-8")
    # unique per process and thread, so concurrent writers never share it
    tmp = f"{os.fspath(path)}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<II", VERSION, len(header)))
            f.write(header)
            for blob in payloads:
                f.write(blob)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise
    dir_fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def load_atck(path) -> dict:
    """Read an ATCK file back into an ordered name -> array dict."""
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
        head = f.read(8)
        if len(head) < 8:
            raise OSError("file truncated inside the fixed header")
        version, header_len = struct.unpack("<II", head)
        if version != VERSION:
            raise FormatError(f"unsupported format version {version}")
        header_bytes = f.read(header_len)
        if len(header_bytes) < header_len:
            raise OSError("file truncated inside the JSON header")
        try:
            header = json.loads(header_bytes.decode("utf-8"))
            entries = header["entries"]
        except (ValueError, KeyError, UnicodeDecodeError) as e:
            raise FormatError(f"malformed header: {e}") from e
        out = {}
        for entry in entries:
            try:
                name = entry["name"]
                dtype = _DTYPES[entry["dtype"]]
                shape = tuple(int(s) for s in entry["shape"])
            except (KeyError, TypeError, ValueError) as e:
                raise FormatError(f"malformed entry {entry!r}") from e
            count = int(np.prod(shape, dtype=np.int64)) if shape else 1
            blob = f.read(count * dtype.itemsize)
            if len(blob) < count * dtype.itemsize:
                raise OSError(f"file truncated inside payload of {name!r}")
            out[name] = np.frombuffer(blob, dtype=dtype).reshape(shape).astype(
                np.float32 if entry["dtype"] == "f32" else np.float64
            )
        return out
