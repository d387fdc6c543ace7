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
import math
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
    """Read an ATCK file back into an ordered name -> array dict.

    A file that ends inside its header or a declared payload raises
    OSError; any other departure from the layout above, duplicate names and
    trailing bytes included, raises FormatError.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        magic = f.read(4)
        if magic != MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
        head = f.read(8)
        if len(head) < 8:
            raise OSError("file truncated inside the fixed header")
        version, header_len = struct.unpack("<II", head)
        if version != VERSION:
            raise FormatError(f"unsupported format version {version}")
        # lengths are checked against the file size so none asks for a huge read
        if header_len > size - f.tell():
            raise OSError("file truncated inside the JSON header")
        try:
            entries = json.loads(f.read(header_len).decode("utf-8"))["entries"]
            if not isinstance(entries, list):
                raise TypeError(f"entries must be a list, got {entries!r}")
        except (ValueError, KeyError, TypeError, RecursionError) as e:
            raise FormatError(f"malformed header: {e}") from e
        out = {}
        for entry in entries:
            try:
                name, dtype, shape = entry["name"], _DTYPES[entry["dtype"]], tuple(entry["shape"])
                if (not isinstance(name, str) or name in out
                        or not all(type(s) is int and s >= 0 for s in shape)
                        or math.prod(max(s, 1) for s in shape) > np.iinfo(np.int64).max):
                    raise ValueError("want a new string name and non-negative int dims "
                                     "whose element count fits int64")
                nbytes = math.prod(shape) * dtype.itemsize
                if nbytes > size - f.tell():
                    raise OSError(f"file truncated inside payload of {name!r}")
                # reshape raises ValueError past numpy's own dimension limits
                arr = np.frombuffer(f.read(nbytes), dtype=dtype).reshape(shape)
            except (KeyError, TypeError, ValueError) as e:
                raise FormatError(f"malformed entry {entry!r}: {e}") from e
            out[name] = arr.astype(dtype.type)
        if f.tell() != size:
            raise FormatError(f"{size - f.tell()} trailing bytes after the last payload")
        return out
