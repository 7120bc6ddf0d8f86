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
A load may read some of the tensors alone: it still parses and checks
every tensor header in order and seeks past the payloads it skips, so a
partial read rejects every malformed container layout a full read does.
There is one read path: a load maps its file read-only once, streams each
payload it reads through a small buffer for its checks, and hands the
payload out as a read-only view of that map. A read of a map brings in far
more than the bytes it asks for (the kernel maps whole runs of cached pages
around each fault), so callers that read a map piece by piece call
:func:`release_pages` after each piece: the process then holds no more of
the file than the piece in hand. A caller that writes into what it loaded,
or must outlive an in-place rewrite of the file, copies it.

Every file the program writes (checkpoints, datasets, reports, logs and
manifests) goes through :func:`atomic_open`: it is written to
``<name>.tmp`` beside the target and renamed over it, so the target is
always either the previous file or the new one. The text artifacts have one
writer per format: every CSV table goes through :func:`write_csv` (comma
separated, one line feed per row) and every JSON record through
:func:`write_json` (two-space indent, final newline).
"""

from __future__ import annotations

import csv
import json
import math
import mmap
import os
import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np

MAGIC = b"SGT1"
CHECKPOINT_FORMAT = "segan-checkpoint-v1"
# The dtype of each SGT1 dtype code; its ``.name`` is the manifest's string.
_DTYPES = (np.dtype("<f4"), np.dtype("u1"), np.dtype("<f8"))
# The buffer each payload read is checked through. It stays below glibc's
# 128 KiB mmap threshold: freeing a larger buffer raises that threshold, and
# the heap then keeps more memory.
CHECK_BYTES = 1 << 16


class FormatError(Exception):
    """Malformed SGT1 or checkpoint payload."""


def _dtype_code(arr: np.ndarray) -> int:
    try:
        return _DTYPES.index(arr.dtype.newbyteorder("<"))
    except ValueError:
        raise FormatError(f"unsupported dtype {arr.dtype}; use float32, float64 or uint8") from None


def _header(arr: np.ndarray) -> bytes:
    return MAGIC + struct.pack(f"<BB{arr.ndim}I", _dtype_code(arr), arr.ndim, *arr.shape)


def _payload(arr: np.ndarray) -> memoryview:
    """A C-contiguous array's own bytes, little-endian: a copy only on a
    big-endian array."""
    return memoryview(arr.astype(arr.dtype.newbyteorder("<"), copy=False))


def write_sgt(path, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr)
    with atomic_open(path, "wb") as f:
        f.write(_header(arr))
        f.write(_payload(arr))


def _read_header(f, offset: int, size: int) -> tuple[np.dtype, tuple[int, ...], int]:
    """Parse the SGT1 header at ``offset`` of the open file ``f`` (``size``
    bytes long): its magic, dtype code and dims. Returns the dtype, the
    dims and the offset where the payload ends, which must fit the file."""
    magic = f.read(4)
    if magic != MAGIC:
        raise FormatError(f"bad magic at offset {offset}: {magic!r}")
    try:
        code, ndim = struct.unpack("<BB", f.read(2))
        dims = struct.unpack(f"<{ndim}I", f.read(4 * ndim))
    except struct.error:
        raise FormatError(f"header truncated at offset {offset}") from None
    if code >= len(_DTYPES):
        raise FormatError(f"unknown dtype code {code}")
    dtype = _DTYPES[code]
    end = offset + 6 + 4 * ndim + math.prod(dims) * dtype.itemsize
    if end > size:
        raise FormatError("payload truncated")
    return dtype, dims, end


def _finite(vals: np.ndarray) -> bool:
    # min and max are nan if any value is, and +-inf if any value is
    # infinite; unlike isfinite they need no array-sized mask
    return vals.dtype.kind != "f" or bool(np.isfinite([vals.min(), vals.max()]).all())


def release_pages(*arrays: np.ndarray) -> None:
    """Drop the process's pages of the file map under each array that is a
    view of one (a loaded tensor or any slice of it): the whole file's
    pages, since a load maps its file once. An array that owns its data,
    such as a copy made by fancy indexing, is left alone.

    The maps are read-only and shared, so nothing is lost: a later read
    faults the pages back in from the page cache."""
    for base in arrays:
        while base is not None and not isinstance(base, mmap.mmap):
            base = base.obj if isinstance(base, memoryview) else getattr(base, "base", None)
        if base is not None:
            base.madvise(mmap.MADV_DONTNEED)


def _read_sgt(f, offset: int, size: int,
              view: mmap.mmap | None) -> tuple[np.ndarray, int, bool]:
    """Read one SGT1 blob that starts at ``offset`` of the open file ``f``
    (``size`` bytes long); returns its array, the offset after it, and
    whether the values read are all finite.

    The payload is read through one :data:`CHECK_BYTES` buffer, chunk by
    chunk, and the array is a read-only view of it in ``view``, the map of
    ``f`` itself, so the bytes handed out are the bytes checked. With
    ``view`` None the payload is skipped, and the array is a read-only
    zero-strided placeholder of the blob's dtype and dims that holds no
    data."""
    dtype, dims, end = _read_header(f, offset, size)
    try:  # a zero dim passes the size check while the others overflow
        arr = np.broadcast_to(np.zeros((), dtype), dims)
    except ValueError:
        raise FormatError(f"dims {list(dims)} at offset {offset} are too large") from None
    if view is None:
        f.seek(end)
        return arr, end, True
    start = end - arr.nbytes
    buf = np.empty(min(CHECK_BYTES, arr.nbytes), np.uint8)
    finite = True
    for lo in range(start, end, CHECK_BYTES):
        chunk = buf[: min(CHECK_BYTES, end - lo)]
        if f.readinto(chunk) != len(chunk):
            raise FormatError("payload truncated")
        finite = finite and _finite(chunk.view(dtype))
    return np.frombuffer(view, dtype, arr.size, start).reshape(dims), end, finite


def read_sgt(path) -> np.ndarray:
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if not size:
            raise FormatError("empty file")
        view = mmap.mmap(f.fileno(), size, access=mmap.ACCESS_READ)
        arr, end, _ = _read_sgt(f, 0, size, view)
    if end != size:
        raise FormatError(f"{size - end} trailing bytes after payload")
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


def write_csv(path, header, rows) -> None:
    """Write a comma-separated table, one line feed per row. Cells are
    written as the caller formatted them."""
    with atomic_open(path, newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, obj) -> None:
    with atomic_open(path) as f:
        f.write(json.dumps(obj, indent=2) + "\n")


def save_checkpoint(path, tensors: dict[str, np.ndarray], meta: dict) -> None:
    """Write the manifest, then each tensor's SGT1 header and its array's own
    buffer: the file is streamed, never built in memory."""
    arrays = {name: np.ascontiguousarray(arr) for name, arr in tensors.items()}
    entries = [
        {
            "name": name,
            "shape": list(arr.shape),
            "dtype": _DTYPES[_dtype_code(arr)].name,
            "bytes": len(_header(arr)) + arr.nbytes,
        }
        for name, arr in arrays.items()
    ]
    manifest = json.dumps({"format": CHECKPOINT_FORMAT, "meta": meta, "tensors": entries})
    raw = manifest.encode("utf-8")
    with atomic_open(path, "wb") as f:
        f.write(struct.pack("<I", len(raw)) + raw)
        for arr in arrays.values():
            f.write(_header(arr))
            f.write(_payload(arr))


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


def load_checkpoint(path, names=None) -> tuple[dict[str, np.ndarray], dict]:
    """The tensors and metadata of a checkpoint. The file is mapped
    read-only once; each payload read is checked in one streamed pass
    through a :data:`CHECK_BYTES` buffer and handed out as a read-only view
    of that map. The load holds none of the payload and one file
    descriptor, the map's, for as long as any tensor lives; a caller's reads
    stay resident until it calls :func:`release_pages`. Truncating or
    rewriting the file in place while a tensor is read ends the process
    with SIGBUS; a rename over it does not, since the map keeps the file it
    was made from.

    ``names``, when given, are the tensors to read. Every tensor header is
    still parsed and checked in order (magic, dtype code, dims against the
    manifest, payload within the file) and trailing bytes are still
    rejected, but the payloads of the other tensors are skipped: they come
    back as read-only placeholders of their dtype and shape that hold no
    data, and their values are not checked."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size < 4:
            raise FormatError("checkpoint shorter than its length header")
        view = mmap.mmap(f.fileno(), size, access=mmap.ACCESS_READ)
        (mlen,) = struct.unpack("<I", f.read(4))
        try:
            manifest = json.loads(f.read(min(mlen, size - 4)).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise FormatError(f"bad manifest: {e}") from None
        _check_manifest(manifest)
        tensors = {}
        offset = f.seek(4 + mlen)
        for entry in manifest["tensors"]:
            read = names is None or entry["name"] in names
            arr, offset, finite = _read_sgt(f, offset, size, view if read else None)
            if list(arr.shape) != entry["shape"]:
                raise FormatError(f"tensor {entry['name']!r}: shape {list(arr.shape)} "
                                  f"!= manifest {entry['shape']}")
            if not finite:
                raise FormatError(f"tensor {entry['name']!r} holds non-finite values")
            tensors[entry["name"]] = arr
    if offset != size:
        raise FormatError(f"{size - offset} trailing bytes after last tensor")
    return tensors, manifest["meta"]
