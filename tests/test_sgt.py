"""Tensor container round trips, header layout, and corruption handling."""

import json
import struct

import numpy as np
import pytest

from segan import sgt


@pytest.mark.parametrize(
    "arr",
    [
        np.arange(6, dtype=np.float32).reshape(2, 3),
        np.arange(24, dtype=np.float64).reshape(2, 3, 4),
        np.array([0, 7, 255], dtype=np.uint8),
        np.float32(3.5).reshape(())[None][0:1],  # shape (1,)
        np.zeros((1, 4, 4, 2), dtype=np.float32),
        np.zeros((0, 3), dtype=np.float64),  # empty payload is legal
    ],
)
def test_round_trip_preserves_bits(tmp_path, arr):
    path = tmp_path / "t.sgt"
    sgt.write_sgt(path, arr)
    back = sgt.read_sgt(path)
    assert back.dtype == arr.dtype
    assert back.shape == arr.shape
    assert np.array_equal(back, arr)


def test_header_layout_is_as_documented():
    arr = np.arange(6, dtype=np.float32).reshape(2, 3)
    buf = sgt.sgt_bytes(arr)
    assert buf[:4] == b"SGT1"
    code, ndim = struct.unpack_from("<BB", buf, 4)
    assert code == 0 and ndim == 2
    assert struct.unpack_from("<2I", buf, 6) == (2, 3)
    assert len(buf) == 4 + 2 + 8 + arr.nbytes


def test_dtype_codes_cover_exactly_the_three_kinds(tmp_path):
    for arr, code in [
        (np.zeros(2, dtype=np.float32), 0),
        (np.zeros(2, dtype=np.uint8), 1),
        (np.zeros(2, dtype=np.float64), 2),
    ]:
        assert sgt.sgt_bytes(arr)[4] == code
    with pytest.raises(sgt.FormatError, match="dtype"):
        sgt.sgt_bytes(np.zeros(2, dtype=np.int32))


def test_big_endian_input_is_normalized(tmp_path):
    arr = np.arange(4, dtype=">f8")
    path = tmp_path / "be.sgt"
    sgt.write_sgt(path, arr)
    back = sgt.read_sgt(path)
    assert np.array_equal(back, arr.astype("<f8"))


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "t.sgt"
    path.write_bytes(sgt.sgt_bytes(np.zeros(3, dtype=np.float32)) + b"\x00")
    with pytest.raises(sgt.FormatError, match="trailing"):
        sgt.read_sgt(path)


def test_truncated_payload_rejected(tmp_path):
    buf = sgt.sgt_bytes(np.arange(8, dtype=np.float64))
    path = tmp_path / "t.sgt"
    path.write_bytes(buf[:-1])
    with pytest.raises(sgt.FormatError, match="truncated"):
        sgt.read_sgt(path)


def test_truncated_header_rejected(tmp_path):
    buf = sgt.sgt_bytes(np.zeros((2, 3), dtype=np.float32))
    path = tmp_path / "t.sgt"
    for cut in range(4, 6 + 4 * 2):
        path.write_bytes(buf[:cut])
        with pytest.raises(sgt.FormatError, match="header truncated"):
            sgt.read_sgt(path)


def test_bad_magic_and_bad_code_rejected(tmp_path):
    good = bytearray(sgt.sgt_bytes(np.zeros(2, dtype=np.float32)))
    path = tmp_path / "t.sgt"

    bad_magic = bytes(b"XGT1" + good[4:])
    path.write_bytes(bad_magic)
    with pytest.raises(sgt.FormatError, match="magic"):
        sgt.read_sgt(path)

    bad_code = bytearray(good)
    bad_code[4] = 9
    path.write_bytes(bytes(bad_code))
    with pytest.raises(sgt.FormatError, match="dtype code"):
        sgt.read_sgt(path)


# ---------------------------------------------------------------------------
# checkpoints


def _sample_tensors():
    rng = np.random.default_rng(0)
    return {
        "student.w1": rng.standard_normal((3, 3, 2, 4)).astype(np.float32),
        "student.b1": np.zeros(4, dtype=np.float32),
        "labels": rng.integers(0, 4, size=(2, 8, 8)).astype(np.uint8),
    }


def test_checkpoint_round_trip(tmp_path):
    tensors = _sample_tensors()
    meta = {"seed": 7, "iteration": 42}
    path = tmp_path / "ckpt.sgt"
    sgt.save_checkpoint(path, tensors, meta)
    back, meta_back = sgt.load_checkpoint(path)
    assert meta_back == meta
    assert set(back) == set(tensors)
    for name in tensors:
        assert back[name].dtype == tensors[name].dtype
        assert np.array_equal(back[name], tensors[name])


def test_checkpoint_manifest_is_readable_json(tmp_path):
    path = tmp_path / "ckpt.sgt"
    sgt.save_checkpoint(path, _sample_tensors(), {"seed": 1})
    buf = path.read_bytes()
    (mlen,) = struct.unpack_from("<I", buf, 0)
    manifest = json.loads(buf[4 : 4 + mlen])
    assert manifest["format"] == "segan-checkpoint-v1"
    names = [e["name"] for e in manifest["tensors"]]
    assert names == list(_sample_tensors())
    assert manifest["tensors"][0]["dtype"] == "float32"


def test_checkpoint_rejects_corruption(tmp_path):
    path = tmp_path / "ckpt.sgt"
    sgt.save_checkpoint(path, _sample_tensors(), {"seed": 1})
    buf = bytearray(path.read_bytes())

    (mlen,) = struct.unpack_from("<I", buf, 0)
    buf[4 + mlen] = ord("X")  # clobber first blob's magic
    bad = tmp_path / "bad.sgt"
    bad.write_bytes(bytes(buf))
    with pytest.raises(sgt.FormatError):
        sgt.load_checkpoint(bad)

    bad.write_bytes(path.read_bytes() + b"\x01\x02")
    with pytest.raises(sgt.FormatError, match="trailing"):
        sgt.load_checkpoint(bad)

    bad.write_bytes(b"\x01")
    with pytest.raises(sgt.FormatError, match="shorter"):
        sgt.load_checkpoint(bad)


def test_checkpoint_rejects_wrong_format_tag(tmp_path):
    path = tmp_path / "ckpt.sgt"
    manifest = json.dumps({"format": "other-v9", "meta": {}, "tensors": []}).encode()
    path.write_bytes(struct.pack("<I", len(manifest)) + manifest)
    with pytest.raises(sgt.FormatError, match="unrecognized"):
        sgt.load_checkpoint(path)
