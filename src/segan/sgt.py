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
There is one read path: a load maps its file read-only once, reads every
header from that map, and hands out each payload as a read-only view of
it, checked through that view. A read of a map brings in far more than the
bytes it asks for (the kernel maps whole runs of cached pages around each
fault), so the check releases the map's pages as it goes, and callers that
read a map piece by piece call :func:`release_pages` after each piece. A
caller that writes into what it loaded, or must outlive an in-place
rewrite of the file, copies it. Truncating or rewriting a mapped file in
place ends a process that reads the cut pages with SIGBUS, during a load
or after it; a rename over the file does not.

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
# The step a load checks each payload in. The kernel maps whole page-cache
# folios around a fault: a stock dataset load peaked at 4 MiB of its map
# resident with 64 KiB steps and with 1 MiB steps, and took 9.9 against
# 5.1 ms (ext4, Linux 6.18).
CHECK_BYTES = 1 << 20


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


def _finite(vals: np.ndarray) -> bool:
    # min and max are nan if any value is, and +-inf if any value is
    # infinite; unlike isfinite they need no array-sized mask
    return bool(np.isfinite([vals.min(), vals.max()]).all())


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


def _read_sgt(view: mmap.mmap, offset: int) -> tuple[np.ndarray, int, bool]:
    """Read the SGT1 blob at ``offset`` of ``view``, the read-only map of a
    whole file: its magic, dtype code and dims, then its payload, which must
    fit the file. Returns the array, a read-only view of ``view``, the
    offset after the blob, and whether its values are all finite.

    The finite check reads the view itself, :data:`CHECK_BYTES` at a time;
    a payload of more than one step has the map's pages released after
    each, and the caller releases the rest once it has read every blob."""
    if (magic := view[offset:offset + 4]) != MAGIC:
        raise FormatError(f"bad magic at offset {offset}: {magic!r}")
    try:
        code, ndim = struct.unpack_from("<BB", view, offset + 4)
        dims = struct.unpack_from(f"<{ndim}I", view, offset + 6)
    except struct.error:
        raise FormatError(f"header truncated at offset {offset}") from None
    if code >= len(_DTYPES):
        raise FormatError(f"unknown dtype code {code}")
    dtype = _DTYPES[code]
    start = offset + 6 + 4 * ndim
    count = math.prod(dims)
    end = start + count * dtype.itemsize
    if end > len(view):
        raise FormatError("payload truncated")
    flat = np.frombuffer(view, dtype, count, start)
    try:  # a zero dim passes the size check while the others overflow
        arr = flat.reshape(dims)
    except ValueError:
        raise FormatError(f"dims {list(dims)} at offset {offset} are too large") from None
    if dtype.kind == "f":  # a uint8 payload has no value to check
        step = CHECK_BYTES // dtype.itemsize
        for lo in range(0, count, step):
            if not _finite(flat[lo:lo + step]):
                return arr, end, False
            if count > step:
                view.madvise(mmap.MADV_DONTNEED)
    return arr, end, True


def _map(path, least: int, short: str) -> mmap.mmap:
    """A read-only map of the file at ``path``, or, if it holds fewer than
    ``least`` bytes (an empty file cannot be mapped), a ``FormatError``."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if size < least:
            raise FormatError(short)
        return mmap.mmap(f.fileno(), size, access=mmap.ACCESS_READ)


def read_sgt(path) -> np.ndarray:
    view = _map(path, 1, "empty file")
    arr, end, _ = _read_sgt(view, 0)
    if end != len(view):
        raise FormatError(f"{len(view) - end} trailing bytes after payload")
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


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """The tensors and metadata of a checkpoint, every payload checked. The
    file is mapped read-only once, and the manifest and every tensor header
    are read from that map. Each payload must fit the file before it is
    touched, so a truncated file is a ``FormatError``, not a read past the
    map's end. Each is checked for finite values through the view it is
    handed out as (see :func:`_read_sgt`), and the map's pages are released
    as the load ends. The load holds one file descriptor, the map's, for as
    long as any tensor lives; a caller's reads stay resident until it calls
    :func:`release_pages`. Truncating or rewriting the file in place during
    the load, or while a tensor is read, ends the process with SIGBUS; a
    rename over it does not, since the map keeps the file it was made from."""
    view = _map(path, 4, "checkpoint shorter than its length header")
    (mlen,) = struct.unpack_from("<I", view)
    try:
        manifest = json.loads(view[4:4 + mlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FormatError(f"bad manifest: {e}") from None
    _check_manifest(manifest)
    tensors = {}
    offset = 4 + mlen
    for entry in manifest["tensors"]:
        arr, offset, finite = _read_sgt(view, offset)
        if list(arr.shape) != entry["shape"]:
            raise FormatError(f"tensor {entry['name']!r}: shape {list(arr.shape)} "
                              f"!= manifest {entry['shape']}")
        if not finite:
            raise FormatError(f"tensor {entry['name']!r} holds non-finite values")
        tensors[entry["name"]] = arr
    view.madvise(mmap.MADV_DONTNEED)
    if offset != len(view):
        raise FormatError(f"{len(view) - offset} trailing bytes after last tensor")
    return tensors, manifest["meta"]
