"""Checkpoint container round-trips and failure modes."""

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
