"""Tensor container round trips, header layout, corruption handling, and the
atomic write of every text artifact."""

import json
import math
import mmap
import os
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from segan import cli, sgt
from segan.metrics import iou_report, write_report
from segan.networks import ModelBundle, NetworksConfig, build_discriminator, build_segnet
from segan.trainer import (SEGAN_COLUMNS, TGSTN_COLUMNS, NumericAbort, TrainLog,
                           save_bundle)

from references import SMAPS, checkpoint_corruptions, mapped_rss_kb, sgt_bytes

FD_DIR = Path("/proc/self/fd")


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
    assert path.read_bytes() == sgt_bytes(arr)
    back = sgt.read_sgt(path)
    assert back.dtype == arr.dtype
    assert back.shape == arr.shape
    assert np.array_equal(back, arr)


def test_header_layout_is_as_documented():
    arr = np.arange(6, dtype=np.float32).reshape(2, 3)
    buf = sgt_bytes(arr)
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
        assert sgt_bytes(arr)[4] == code
    with pytest.raises(sgt.FormatError, match="dtype"):
        sgt_bytes(np.zeros(2, dtype=np.int32))


def test_big_endian_input_is_normalized(tmp_path):
    arr = np.arange(4, dtype=">f8")
    path = tmp_path / "be.sgt"
    sgt.write_sgt(path, arr)
    back = sgt.read_sgt(path)
    assert np.array_equal(back, arr.astype("<f8"))


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "t.sgt"
    path.write_bytes(sgt_bytes(np.zeros(3, dtype=np.float32)) + b"\x00")
    with pytest.raises(sgt.FormatError, match="trailing"):
        sgt.read_sgt(path)


def test_truncated_payload_rejected(tmp_path):
    buf = sgt_bytes(np.arange(8, dtype=np.float64))
    path = tmp_path / "t.sgt"
    path.write_bytes(buf[:-1])
    with pytest.raises(sgt.FormatError, match="truncated"):
        sgt.read_sgt(path)


def test_truncated_header_rejected(tmp_path):
    buf = sgt_bytes(np.zeros((2, 3), dtype=np.float32))
    path = tmp_path / "t.sgt"
    for cut in range(4, 6 + 4 * 2):
        path.write_bytes(buf[:cut])
        with pytest.raises(sgt.FormatError, match="header truncated"):
            sgt.read_sgt(path)


def test_bad_magic_and_bad_code_rejected(tmp_path):
    good = bytearray(sgt_bytes(np.zeros(2, dtype=np.float32)))
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


class _FailingFile:
    """A file whose ``fail_at``-th ``write`` fails, as on a full disk."""

    def __init__(self, f, fail_at=2):
        self.f = f
        self.fail_at = fail_at
        self.writes = 0

    def write(self, data):
        self.writes += 1
        if self.writes == self.fail_at:
            raise OSError("no space left on device")
        return self.f.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()


def test_interrupted_checkpoint_write_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "checkpoint.sgt"
    sgt.save_checkpoint(path, _sample_tensors(), {"seed": 1})
    before = path.read_bytes()
    opened = []

    def failing_open(*args, **kwargs):
        opened.append(_FailingFile(open(*args, **kwargs)))
        return opened[-1]

    monkeypatch.setattr(sgt, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="no space"):
        sgt.save_checkpoint(path, {"other": np.ones(3, np.float32)}, {"seed": 2})
    # the manifest went out in the first write; the first tensor failed
    assert [f.writes for f in opened] == [2]
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.sgt"]
    monkeypatch.undo()
    sgt.save_checkpoint(path, _sample_tensors(), {"seed": 1})
    assert path.read_bytes() == before


def _write_report(out, k):
    write_report(iou_report(np.array([[k, 1], [2, 3]])), out)


def _write_train_log(out, k):
    log = TrainLog(SEGAN_COLUMNS)
    log.append(iter=k, lr_student=0.1, lr_disc=0.2, loss_seg=0.3, loss_con=0.4, loss_adv_g=0.5,
               loss_adv_d=0.6, miou_eval=0.7, stage="adversarial")
    log.append(iter=k + 1, lr_student=0.1, lr_disc=0.0, loss_seg=0.3, loss_con=0.0,
               loss_adv_g=0.0, loss_adv_d=0.0, miou_eval=0.7, stage="self_train")
    log.to_csv(out / "train_log.csv")


def _write_tgstn_log(out, k):
    log = TrainLog(TGSTN_COLUMNS)
    for it in (k, k + 1):
        log.append(iter=it, lr_gen=0.1, lr_disc=0.2, loss_style=0.3, loss_sem=0.4, loss_per=0.5)
    log.to_csv(out / "tgstn_log.csv")


def _cli(*argv):
    """Run a subcommand without ``cli.main``'s error handling, so that an
    ``OSError`` reaches the test."""
    args = cli.build_parser().parse_args([*argv, "--force"])
    return args.func(args)


_TINY_DATA = {"dataset": {"n_source": 1, "n_target": 1, "height": 32, "width": 32}}


def _gen_data(out, k):  # run_manifest.json
    config = out.parent / "config.json"
    config.write_text(json.dumps(_TINY_DATA))
    _cli("gen-data", "--config", str(config), "--seed", str(k), "--out", str(out))


def _bounds(out, k):  # bounds.json, for a checkpoint of seed k
    data, ckpt = out.parent / "data", out.parent / f"checkpoint_{k}.sgt"
    config = out.parent / "bounds_config.json"
    config.write_text(json.dumps({**_TINY_DATA, "bounds": {"power_iters": 3, "batch_count": 1}}))
    if not data.exists():
        _cli("gen-data", "--config", str(config), "--out", str(data))
    nets = NetworksConfig()
    save_bundle(ckpt, ModelBundle(student=build_segnet(nets.segnet_spec(4), k),
                                  disc=build_discriminator(nets.disc_spec(4), k)), seed=k)
    _cli("bounds", "--config", str(config), "--data", str(data), "--checkpoint", str(ckpt),
         "--out", str(out))


def _export_plots(out, k):  # fig6_stability.csv, table3_ablation.csv, fig7_gains.csv
    runs = []
    for mode, miou in (("noadapt", 0.5), ("at", 0.5 + k / 10)):
        run = out.parent / mode
        run.mkdir(exist_ok=True)
        (run / "run_manifest.json").write_text(json.dumps({"mode": mode, "seed": 3}))
        (run / "train_log.csv").write_text(f"iter,miou_eval\n5,{miou}\n")
        (run / "report.json").write_text(json.dumps(
            {"iou": [miou, None], "miou": miou, "pixel_count": 10, "classes": 2}))
        runs.append(str(run))
    _cli("export-plots", "--runs", *runs, "--out", str(out))


def _write_sgt(out, k):
    sgt.write_sgt(out / "t.sgt", np.full(3, k, np.float32))


def _numeric_abort(out, k):
    def abort(args):
        raise NumericAbort(k, {"seg": math.nan})

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "cmd_gen_data", abort)
        assert cli.main(["gen-data", "--out", str(out)]) == cli.EXIT_NUMERIC


@pytest.mark.parametrize(
    "name, write, fail_at",  # the write of ``name`` that fails; a JSON record has one
    [
        ("report.csv", _write_report, 2),
        ("report.json", _write_report, 1),
        ("train_log.csv", _write_train_log, 1),
        ("tgstn_log.csv", _write_tgstn_log, 1),
        ("run_manifest.json", _gen_data, 1),
        ("bounds.json", _bounds, 1),
        ("fig6_stability.csv", _export_plots, 2),
        ("table3_ablation.csv", _export_plots, 2),
        ("fig7_gains.csv", _export_plots, 2),
        ("numeric_abort.json", _numeric_abort, 1),
        ("t.sgt", _write_sgt, 2),  # the header went out, the payload failed
    ],
)
def test_interrupted_text_write_keeps_the_previous_file(tmp_path, monkeypatch, name, write,
                                                        fail_at):
    out = tmp_path / "out"
    out.mkdir()
    write(out, 1)
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    def failing_open(file, *args, **kwargs):
        f = open(file, *args, **kwargs)
        return _FailingFile(f, fail_at) if Path(file).name == name + ".tmp" else f

    monkeypatch.setattr(sgt, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="no space"):
        write(out, 2)
    assert (out / name).read_bytes() == before[name]
    assert sorted(p.name for p in out.iterdir()) == sorted(before)
    monkeypatch.undo()
    write(out, 2)
    assert (out / name).read_bytes() != before[name]


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


def _raw_checkpoint(path, manifest, blobs=b""):
    raw = json.dumps(manifest).encode()
    path.write_bytes(struct.pack("<I", len(raw)) + raw + blobs)


_BLOB = sgt_bytes(np.zeros(3, dtype=np.float32))
_ENTRY = {"name": "w", "shape": [3], "dtype": "float32", "bytes": len(_BLOB)}


@pytest.mark.parametrize(
    "manifest, match",
    [
        ({"format": sgt.CHECKPOINT_FORMAT, "meta": {}}, "tensors"),
        ({"format": sgt.CHECKPOINT_FORMAT, "meta": {}, "tensors": {"w": _ENTRY}}, "tensors"),
        ({"format": sgt.CHECKPOINT_FORMAT, "meta": {},
          "tensors": [{k: v for k, v in _ENTRY.items() if k != "shape"}]}, "entry 0"),
        ({"format": sgt.CHECKPOINT_FORMAT, "meta": {},
          "tensors": [{k: v for k, v in _ENTRY.items() if k != "name"}]}, "entry 0"),
        ({"format": sgt.CHECKPOINT_FORMAT, "meta": {}, "tensors": ["w"]}, "entry 0"),
        ([sgt.CHECKPOINT_FORMAT, {}, [_ENTRY]], "list"),
        ({"format": sgt.CHECKPOINT_FORMAT, "tensors": [_ENTRY]}, "meta"),
        ({"format": sgt.CHECKPOINT_FORMAT, "meta": [], "tensors": [_ENTRY]}, "meta"),
    ],
    ids=["no-tensors", "tensors-not-list", "entry-no-shape", "entry-no-name",
         "entry-not-object", "manifest-list", "no-meta", "meta-not-object"],
)
def test_checkpoint_rejects_malformed_manifest(tmp_path, manifest, match):
    path = tmp_path / "ckpt.sgt"
    _raw_checkpoint(path, manifest, _BLOB)
    with pytest.raises(sgt.FormatError, match=match):
        sgt.load_checkpoint(path)


def _dataset_shaped():
    rng = np.random.default_rng(1)
    return {
        "images": rng.random((80, 64, 64, 3)).astype(np.float32),  # 3.9 MB
        "features": rng.standard_normal((40, 32, 32, 64)),  # 21 MB
        "labels": rng.integers(0, 4, size=(80, 64, 64)).astype(np.uint8),
    }


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_checkpoint_load_copies_each_tensor_once(tmp_path):
    # Each tensor is a view of the file's map: the load holds no payload.
    # Reading each tensor into its own array was 1x the payload; reading the
    # whole file first, then copying each array out of it, was 2x.
    tensors = _dataset_shaped()
    path = tmp_path / "big.sgt"
    sgt.save_checkpoint(path, tensors, {"seed": 1})
    before = path.read_bytes()
    (back, _), peak = _traced_peak(lambda: sgt.load_checkpoint(path))
    assert peak < 2**17, peak  # the metadata
    for name, arr in tensors.items():
        assert back[name].dtype == arr.dtype and np.array_equal(back[name], arr)
    sgt.save_checkpoint(path, back, {"seed": 1})
    assert path.read_bytes() == before


def test_checkpoint_save_streams_each_tensor(tmp_path):
    # Each array's own buffer goes to the file; building the file's bytes in
    # memory first peaked at 1.38x the payload.
    tensors = _dataset_shaped()
    payload = sum(a.nbytes for a in tensors.values())
    path = tmp_path / "big.sgt"
    _, peak = _traced_peak(lambda: sgt.save_checkpoint(path, tensors, {"seed": 1}))
    assert peak <= 0.1 * payload, peak / payload
    expected = b"".join(sgt_bytes(a) for a in tensors.values())
    assert path.read_bytes().endswith(expected)


def test_mapped_load_equals_an_owned_load_and_holds_no_payload(tmp_path):
    tensors = _dataset_shaped()
    tensors["empty"] = np.zeros((0, 3), np.float32)  # a zero-size payload is a view too
    path = tmp_path / "big.sgt"
    sgt.save_checkpoint(path, tensors, {"seed": 1})
    (mapped, meta), peak = _traced_peak(lambda: sgt.load_checkpoint(path))
    assert meta == {"seed": 1} and list(mapped) == list(tensors)
    assert peak < 2**20, peak / 2**20
    for name, arr in mapped.items():
        assert type(arr) is np.ndarray and arr.dtype == tensors[name].dtype
        assert arr.shape == tensors[name].shape and arr.tobytes() == tensors[name].tobytes()
        assert not arr.flags.writeable and not arr.flags.owndata
        with pytest.raises(ValueError, match="read-only"):
            arr.reshape(-1)[:1] = 0


def _map_under(arr):
    """The ``mmap`` at the end of ``arr``'s base chain, or None."""
    base = arr
    while base is not None and not isinstance(base, mmap.mmap):
        base = base.obj if isinstance(base, memoryview) else getattr(base, "base", None)
    return base


@pytest.mark.skipif(not FD_DIR.exists(), reason="no /proc/self/fd to count descriptors in")
def test_a_load_maps_its_file_once(tmp_path):
    # CPython's mmap holds a duplicate of the file's descriptor: one map per
    # tensor held 26 descriptors here, one map per load holds one
    tensors = {f"t{i}": np.full((i + 1, 3), i, np.float32) for i in range(26)}
    tensors["t7"] = np.arange(5, dtype=np.uint8)
    path = tmp_path / "many.sgt"
    sgt.save_checkpoint(path, tensors, {})
    before = len(os.listdir(FD_DIR))
    back, _ = sgt.load_checkpoint(path)
    assert len(os.listdir(FD_DIR)) - before <= 1
    read = list(back.values())
    maps = [_map_under(arr) for arr in read]
    assert isinstance(maps[0], mmap.mmap) and len(maps[0]) == path.stat().st_size
    assert all(m is maps[0] for m in maps)
    for name, arr in zip(tensors, read):
        assert not arr.flags.writeable and arr.tobytes() == tensors[name].tobytes()
    del back, read, maps, arr  # the last tensor goes, and its map and descriptor with it
    assert len(os.listdir(FD_DIR)) == before


@pytest.mark.skipif(not SMAPS.exists(), reason="no /proc/self/smaps to read resident maps from")
def test_release_pages_drops_a_maps_pages_and_leaves_owned_arrays_alone(tmp_path):
    tensors = _dataset_shaped()
    path = tmp_path / "mapped.sgt"
    sgt.save_checkpoint(path, tensors, {})
    mapped, _ = sgt.load_checkpoint(path)
    for arr in mapped.values():
        arr.sum()
    assert mapped_rss_kb("mapped.sgt") > 0
    # owned arrays, a fancy-indexed copy of a map and an array over bytes
    # hold no map: releasing them leaves the maps' pages resident
    owned = [tensors["images"], mapped["labels"][[0, 2]], np.frombuffer(b"\0" * 8, np.uint8)]
    before = [a.copy() for a in owned]
    sgt.release_pages(*owned)
    assert mapped_rss_kb("mapped.sgt") > 0
    assert all(np.array_equal(a, b) for a, b in zip(owned, before))
    # a slice of one tensor releases the whole file's map, which reads back
    # unchanged
    sgt.release_pages(mapped["labels"][1:])
    assert mapped_rss_kb("mapped.sgt") == 0
    for name, arr in mapped.items():
        assert arr.tobytes() == tensors[name].tobytes()


@pytest.mark.skipif(not SMAPS.exists(), reason="no /proc/self/smaps to read resident maps from")
def test_a_load_leaves_none_of_its_map_resident(tmp_path):
    # the check reads every payload through the map: a payload of several
    # steps is released after each step, the one-step payloads once, as the
    # load ends. Each array read keeps its map, so a 0 kB reading is a map
    # with no page resident
    big = np.ones(3 * sgt.CHECK_BYTES // 8 + 1, np.float64)
    sgt.write_sgt(tmp_path / "big.sgt", big)
    arr, _, finite = sgt._read_sgt(sgt._map(tmp_path / "big.sgt", 1, ""), 0)
    assert finite and mapped_rss_kb("big.sgt") == 0
    sgt.write_sgt(tmp_path / "small.sgt", big[:3])
    small, _, finite = sgt._read_sgt(sgt._map(tmp_path / "small.sgt", 1, ""), 0)
    assert finite and mapped_rss_kb("small.sgt") > 0
    tensors = {"small": big[:3], "big": big, "labels": np.zeros(sgt.CHECK_BYTES + 1, np.uint8)}
    path = tmp_path / "steps.sgt"
    sgt.save_checkpoint(path, tensors, {})
    back, _ = sgt.load_checkpoint(path)
    assert _map_under(back["big"]) is not None
    assert mapped_rss_kb("steps.sgt") == 0
    for name, arr in back.items():
        assert arr.tobytes() == tensors[name].tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_mapped_load_finds_a_non_finite_value_at_every_chunk_edge(tmp_path, dtype, value):
    per_chunk = sgt.CHECK_BYTES // np.dtype(dtype).itemsize
    good = np.arange(2 * per_chunk + 5, dtype=dtype)
    path = tmp_path / "t.sgt"
    for i in (0, per_chunk - 1, per_chunk, 2 * per_chunk, len(good) - 1):
        bad = good.copy()
        bad[i] = value
        sgt.save_checkpoint(path, {"ok": good, "x": bad}, {})
        with pytest.raises(sgt.FormatError, match="'x' holds non-finite values"):
            sgt.load_checkpoint(path)
    sgt.save_checkpoint(path, {"ok": good}, {})
    back, _ = sgt.load_checkpoint(path)
    assert back["ok"].tobytes() == good.tobytes()


def test_checkpoint_reader_raises_only_format_errors(tmp_path):
    # every corruption of a small checkpoint is rejected with FormatError,
    # not loaded and not with struct.error, ValueError, EOFError, ...
    path = tmp_path / "ckpt.sgt"
    sgt.save_checkpoint(path, {"w": np.arange(6, dtype=np.float32).reshape(2, 3),
                               "labels": np.array([0, 1, 3, 2], dtype=np.uint8)}, {"seed": 1})
    good = path.read_bytes()
    cases = list(checkpoint_corruptions(good))
    assert len(cases) == len(good) + 2 * 2 * 9
    bad = tmp_path / "bad.sgt"
    wrong = []
    for case, data in cases:
        bad.write_bytes(data)
        try:
            sgt.load_checkpoint(bad)
        except sgt.FormatError:
            continue
        except Exception as exc:
            wrong.append((case, repr(exc)))
        else:
            wrong.append((case, "loaded"))
    assert wrong == []
