"""Checkpoint container round-trips and failure modes."""

import json
import struct

import numpy as np
import pytest

from atconv.atck import MAGIC, VERSION, load_atck, save_atck
from atconv.errors import FormatError
from atconv.rng import Rng


def test_roundtrip_preserves_values_and_order(tmp_path):
    rng = Rng(0)
    arrays = {
        "blocks.0.mixer.w_f": rng.normal(0, 1, (8, 8)),
        "head.w": rng.normal(0, 1, (10, 8)).astype(np.float32),
        "scalar_ish": rng.uniform(-1, 1, (1,)),
    }
    path = tmp_path / "weights.atck"
    save_atck(path, arrays)
    back = load_atck(path)
    assert list(back.keys()) == list(arrays.keys())
    for name, arr in arrays.items():
        assert back[name].dtype == arr.dtype
        assert back[name].shape == arr.shape
        assert np.array_equal(back[name], arr)


def test_f32_and_f64_round_trip_bit_exact(tmp_path):
    vals = np.array([0.1, -1.0 / 3.0, 1e-40, 2.0**52 + 1.0])
    path = tmp_path / "w.atck"
    save_atck(path, {"a": vals, "b": vals.astype(np.float32)})
    back = load_atck(path)
    assert back["a"].tobytes() == vals.tobytes()
    assert back["b"].tobytes() == vals.astype(np.float32).tobytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.atck"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError):
        load_atck(path)


def test_bad_version_rejected(tmp_path):
    path = tmp_path / "bad.atck"
    header = b"{}"
    path.write_bytes(MAGIC + struct.pack("<II", VERSION + 1, len(header)) + header)
    with pytest.raises(FormatError):
        load_atck(path)


def test_truncated_payload_is_os_error(tmp_path):
    path = tmp_path / "w.atck"
    save_atck(path, {"a": np.ones((4, 4))})
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(OSError):
        load_atck(path)


def test_truncated_header_is_os_error(tmp_path):
    path = tmp_path / "w.atck"
    path.write_bytes(MAGIC + struct.pack("<II", VERSION, 64) + b"{")
    with pytest.raises(OSError):
        load_atck(path)


def test_malformed_header_json_rejected(tmp_path):
    path = tmp_path / "w.atck"
    header = b"not json at all"
    path.write_bytes(MAGIC + struct.pack("<II", VERSION, len(header)) + header)
    with pytest.raises(FormatError):
        load_atck(path)


def test_unsupported_dtype_rejected_on_save(tmp_path):
    with pytest.raises(FormatError):
        save_atck(tmp_path / "w.atck", {"a": np.arange(4, dtype=np.int32)})


def test_empty_dict_roundtrip(tmp_path):
    path = tmp_path / "w.atck"
    save_atck(path, {})
    assert load_atck(path) == {}


class _FailOnBlob:
    """A file that writes half of ``blob`` and then fails, like a full disk."""

    def __init__(self, f, blob):
        self.f, self.blob = f, blob

    def write(self, data):
        if bytes(data) == self.blob:
            self.f.write(self.blob[:len(self.blob) // 2])
            raise OSError("no space left on device")
        return self.f.write(data)

    def __getattr__(self, name):
        return getattr(self.f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()


def test_failed_write_keeps_previous_file_and_leaves_no_temp(tmp_path, monkeypatch):
    from atconv import atck
    path = tmp_path / "w.atck"
    save_atck(path, {"a": np.ones((4, 4))})
    before = path.read_bytes()
    payload = np.full((8, 8), 7.0)
    monkeypatch.setattr(atck, "open",
                        lambda *a, **k: _FailOnBlob(open(*a, **k), payload.tobytes()),
                        raising=False)
    with pytest.raises(OSError, match="no space"):
        save_atck(path, {"a": np.zeros((4, 4)), "b": payload})
    assert path.read_bytes() == before
    with pytest.raises(OSError, match="no space"):
        save_atck(tmp_path / "new.atck", {"b": payload})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["w.atck"]
    monkeypatch.undo()
    save_atck(path, {"b": payload})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["w.atck"]
    assert np.array_equal(load_atck(path)["b"], payload)


def test_save_syncs_the_file_then_its_directory(tmp_path, monkeypatch):
    import os
    import stat
    from atconv import atck
    synced = []
    real_fsync = os.fsync

    def recording_fsync(fd):
        synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
        real_fsync(fd)

    monkeypatch.setattr(atck.os, "fsync", recording_fsync)
    save_atck(tmp_path / "w.atck", {"a": np.ones(3)})
    assert synced == [False, True]


# ----------------------------------------------------------------------
# malformed files
# ----------------------------------------------------------------------

def _write_raw(path, entries, payload=b""):
    """An ATCK file with a hand-written entry list and payload."""
    header = json.dumps({"entries": entries}).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<II", VERSION, len(header)) + header + payload)


MALFORMED = {
    "negative_dim": ([{"name": "a", "dtype": "f64", "shape": [-1, 4]}], b""),
    "count_overflows_int64": ([{"name": "a", "dtype": "f64", "shape": [2**32, 2**32]}], b""),
    "zero_size_count_overflows_int64": (
        [{"name": "a", "dtype": "f64", "shape": [0, 2**62, 2**62]}], b""),
    "too_many_dims": ([{"name": "a", "dtype": "f64", "shape": [0] * 100}], b""),
    "float_dim": ([{"name": "a", "dtype": "f64", "shape": [2.0]}], bytes(16)),
    "string_shape": ([{"name": "a", "dtype": "f64", "shape": "2"}], bytes(16)),
    "bool_dim": ([{"name": "a", "dtype": "f64", "shape": [True]}], bytes(8)),
    "entries_int": (5, b""),
    "entries_object": ({"name": "a"}, b""),
    "entry_int": ([5], b""),
    "name_int": ([{"name": 5, "dtype": "f64", "shape": [1]}], bytes(8)),
    "dtype_list": ([{"name": "a", "dtype": ["f64"], "shape": [1]}], bytes(8)),
    "duplicate_name": ([{"name": "a", "dtype": "f64", "shape": [1]},
                        {"name": "a", "dtype": "f64", "shape": [1]}], bytes(16)),
    "trailing_byte": ([{"name": "a", "dtype": "f64", "shape": [1]}], bytes(9)),
    "trailing_byte_no_entries": ([], b"\x00"),
}


@pytest.mark.parametrize("entries, payload", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_entries_are_format_errors(tmp_path, entries, payload):
    path = tmp_path / "w.atck"
    _write_raw(path, entries, payload)
    with pytest.raises(FormatError):
        load_atck(path)


@pytest.mark.parametrize("header", [b"[1]", b"5", b'"entries"', b"[" * 100000],
                         ids=["list", "int", "string", "deeply_nested"])
def test_header_that_is_not_an_object_is_format_error(tmp_path, header):
    path = tmp_path / "w.atck"
    path.write_bytes(MAGIC + struct.pack("<II", VERSION, len(header)) + header)
    with pytest.raises(FormatError):
        load_atck(path)


def test_lengths_past_the_end_of_file_are_os_errors(tmp_path):
    path = tmp_path / "w.atck"
    path.write_bytes(MAGIC + struct.pack("<II", VERSION, 2**32 - 1) + b"{}")
    with pytest.raises(OSError, match="header"):
        load_atck(path)
    _write_raw(path, [{"name": "a", "dtype": "f64", "shape": [2**40]}], bytes(8))
    with pytest.raises(OSError, match="payload"):
        load_atck(path)


def _same(a, b):
    return list(a) == list(b) and all(
        a[k].dtype == b[k].dtype and a[k].shape == b[k].shape
        and a[k].tobytes() == b[k].tobytes() for k in a)


def test_corruption_fuzz(tmp_path):
    """Flip, truncate and append bytes on a saved file.

    Truncation and appended bytes are always rejected. A flipped byte may
    still load cleanly: ATCK has no checksum, so a flip in a payload value
    or a name letter reads as what the bytes now say, and one in the JSON
    whitespace reads as the original. A clean load must be one of those
    two: the original dict, or a dict that saves back to the corrupted
    file byte for byte. Anything else must be FormatError or OSError.
    """
    rng = Rng(20)
    arrays = {
        "a": rng.normal(0, 1, (3, 4)),
        "c": rng.normal(0, 1, (5,)).astype(np.float32),
        "blocks.0.gamma": rng.normal(0, 1, (2, 1, 2)),
        "empty": np.zeros((0, 3)),
    }
    path = tmp_path / "w.atck"
    save_atck(path, arrays)
    blob = path.read_bytes()
    assert _same(load_atck(path), arrays)
    header_end = 12 + struct.unpack("<I", blob[8:12])[0]
    resaved = tmp_path / "resaved.atck"
    cases = []
    for i in rng.integers(header_end, (300,)):  # flips where the loader parses
        cases.append(("flip", int(i)))
    for i in rng.integers(len(blob), (100,)):  # flips anywhere
        cases.append(("flip", int(i)))
    cases += [("truncate", int(n)) for n in rng.integers(len(blob), (60,))]
    cases += [("append", int(n) + 1) for n in rng.integers(16, (40,))]
    masks = rng.integers(255, (len(cases),)) + 1
    outcomes = {"equal": 0, "faithful": 0, "rejected": 0}
    for (kind, n), mask in zip(cases, masks):
        if kind == "flip":
            bad = bytearray(blob)
            bad[n] ^= int(mask)
            bad = bytes(bad)
        elif kind == "truncate":
            bad = blob[:n]
        else:
            bad = blob + rng.integers(256, (n,)).astype(np.uint8).tobytes()
        path.write_bytes(bad)
        try:
            got = load_atck(path)
        except (FormatError, OSError):
            outcomes["rejected"] += 1
            continue
        assert kind == "flip", f"{kind} {n} loaded cleanly"
        if _same(got, arrays):
            outcomes["equal"] += 1
            continue
        save_atck(resaved, got)
        assert resaved.read_bytes() == bad, f"flip at {n} by {int(mask):#x}"
        outcomes["faithful"] += 1
    # the seed reaches both clean loads and rejections
    assert outcomes["faithful"] > 0 and outcomes["rejected"] > 0, outcomes
