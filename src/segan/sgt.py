"""SGT1 tensor container and the checkpoint file built from it.

SGT1 layout (all integers little-endian):

    4 bytes   magic b"SGT1"
    1 byte    dtype code: 0=float32, 1=uint8, 2=float64
    1 byte    ndim
    ndim*4    uint32 dims
    payload   row-major array bytes

A checkpoint is a uint32 manifest length, a UTF-8 JSON manifest, then the
referenced SGT1 blobs concatenated in manifest order. The manifest carries
tensor names/shapes/dtypes plus caller metadata (seed, iteration, specs).

Every file the program writes (checkpoints, datasets, reports, logs and
manifests) goes through :func:`atomic_open`: it is written to
``<name>.tmp`` beside the target and renamed over it, so the target is
always either the previous file or the new one.
"""

from __future__ import annotations

import json
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

MAGIC = b"SGT1"
CHECKPOINT_FORMAT = "segan-checkpoint-v1"
_DTYPE_BY_CODE = {0: np.dtype("<f4"), 1: np.dtype("u1"), 2: np.dtype("<f8")}
_CODE_BY_KIND = {"<f4": 0, "u1": 1, "<f8": 2}


class FormatError(Exception):
    """Malformed SGT1 or checkpoint payload."""


def _dtype_code(arr: np.ndarray) -> int:
    key = arr.dtype.newbyteorder("<").str.lstrip("<|=")
    key = {"f4": "<f4", "f8": "<f8", "u1": "u1"}.get(key)
    if key is None:
        raise FormatError(f"unsupported dtype {arr.dtype}; use float32, float64 or uint8")
    return _CODE_BY_KIND[key]


def sgt_bytes(arr: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(arr)
    code = _dtype_code(arr)
    head = MAGIC + struct.pack("<BB", code, arr.ndim)
    head += struct.pack(f"<{arr.ndim}I", *arr.shape)
    payload = arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes()
    return head + payload


def write_sgt(path, arr: np.ndarray) -> None:
    Path(path).write_bytes(sgt_bytes(arr))


def _parse_sgt(buf: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    if buf[offset : offset + 4] != MAGIC:
        raise FormatError(f"bad magic at offset {offset}: {buf[offset:offset + 4]!r}")
    try:
        code, ndim = struct.unpack_from("<BB", buf, offset + 4)
        dims = struct.unpack_from(f"<{ndim}I", buf, offset + 6)
    except struct.error:
        raise FormatError(f"header truncated at offset {offset}") from None
    if code not in _DTYPE_BY_CODE:
        raise FormatError(f"unknown dtype code {code}")
    dtype = _DTYPE_BY_CODE[code]
    start = offset + 6 + 4 * ndim
    count = int(np.prod(dims, dtype=np.int64)) if ndim else 1
    end = start + count * dtype.itemsize
    if end > len(buf):
        raise FormatError("payload truncated")
    arr = np.frombuffer(buf, dtype=dtype, count=count, offset=start).reshape(dims)
    return arr.copy(), end


def read_sgt(path) -> np.ndarray:
    buf = Path(path).read_bytes()
    arr, end = _parse_sgt(buf)
    if end != len(buf):
        raise FormatError(f"{end - len(buf)} trailing bytes after payload")
    return arr


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open ``<name>.tmp`` beside ``path`` for writing, and rename it over
    ``path`` when the block ends. If the block raises, the temp file is
    removed and ``path`` keeps its previous content."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_checkpoint(path, tensors: dict[str, np.ndarray], meta: dict) -> None:
    blobs = []
    entries = []
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(arr)
        blob = sgt_bytes(arr)
        entries.append(
            {
                "name": name,
                "shape": list(arr.shape),
                "dtype": {0: "float32", 1: "uint8", 2: "float64"}[_dtype_code(arr)],
                "bytes": len(blob),
            }
        )
        blobs.append(blob)
    manifest = json.dumps({"format": CHECKPOINT_FORMAT, "meta": meta, "tensors": entries})
    raw = manifest.encode("utf-8")
    with atomic_open(path, "wb") as f:
        f.write(struct.pack("<I", len(raw)) + raw)
        for blob in blobs:
            f.write(blob)


def _check_manifest(manifest) -> None:
    """Reject a manifest without the structure ``save_checkpoint`` writes,
    so a malformed file fails with ``FormatError``, not a ``KeyError``."""
    if not isinstance(manifest, dict):
        raise FormatError(f"manifest is a JSON {type(manifest).__name__}, not an object")
    if manifest.get("format") != CHECKPOINT_FORMAT:
        raise FormatError(f"unrecognized checkpoint format {manifest.get('format')!r}")
    if not isinstance(manifest.get("meta"), dict):
        raise FormatError("manifest has no 'meta' object")
    entries = manifest.get("tensors")
    if not isinstance(entries, list):
        raise FormatError("manifest has no 'tensors' list")
    for i, entry in enumerate(entries):
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("name"), str)
            and isinstance(entry.get("shape"), list)
        ):
            raise FormatError(f"manifest tensor entry {i} lacks a 'name' string or 'shape' list")


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    buf = Path(path).read_bytes()
    if len(buf) < 4:
        raise FormatError("checkpoint shorter than its length header")
    (mlen,) = struct.unpack_from("<I", buf, 0)
    try:
        manifest = json.loads(buf[4 : 4 + mlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FormatError(f"bad manifest: {e}") from None
    _check_manifest(manifest)
    tensors = {}
    offset = 4 + mlen
    for entry in manifest["tensors"]:
        arr, offset = _parse_sgt(buf, offset)
        if list(arr.shape) != entry["shape"]:
            raise FormatError(
                f"tensor {entry['name']!r}: shape {list(arr.shape)} != manifest {entry['shape']}"
            )
        if arr.dtype.kind == "f" and not np.isfinite(arr).all():
            raise FormatError(f"tensor {entry['name']!r} holds non-finite values")
        tensors[entry["name"]] = arr
    if offset != len(buf):
        raise FormatError(f"{len(buf) - offset} trailing bytes after last tensor")
    return tensors, manifest["meta"]
