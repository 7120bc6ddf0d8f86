"""Independent references the tests hold the program to.

Nothing here runs in the program. The eager loss twins evaluate each graph
loss of ``segan.losses`` directly in float64 numpy, from raw logits; the
finite-difference gradient only ever calls ``forward``; the stability index
is acceptance criterion 07's quantity and the negative classes criterion
08's; the Dudley objective is the entropy integral whose minimum
``bounds.rademacher_bound`` states in closed form. The whole-stack
multi-scale prediction is the oracle the sliced one is held to, bit for bit,
the in-memory SGT1 blob is what the streamed writer must put on disk, and
the checkpoint corruptions are the cases the container reader must reject
with its own error, and the malformed datasets the ones the dataset loader
and every command that reads a dataset must reject. The per-scene generator, which styles each image
alone and blurs it with ``scipy.ndimage.gaussian_filter``, is the oracle
the stack-styled ``generate_dataset`` is held to, array for array. The
reduce form of the upsampling gradient and the 2-d fancy-index resize are
the one-call forms the program's sliced kernels are held to, byte for byte.
The forward tap loop, one small matmul per kernel tap, is the reference the
windowed-GEMM forward is held to, byte for byte on the stock 1x1 head and
within a named tolerance elsewhere; the input-gradient tap loop is the one
the stride-2 phase form of the input gradient is held to on the
discriminator's layers. The space-to-depth build of the input gradient's
kernel matrix (extend, regroup, flip) is the one its single strided copy is
held to, byte for byte. The resident size of a file's maps is read from
the kernel's own account, ``/proc/self/smaps``.
"""

import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter

from segan import sgt
from segan.datagen import (
    PALETTE,
    PIXEL_NOISE,
    TEXTURE_AMP,
    TEXTURE_ANGLE,
    AppearanceParams,
    ClassPrior,
    ShiftParams,
    _cov_factor,
    _rotation_about_gray,
    generate_dataset,
    save_dataset,
)
from segan.losses import PROB_FLOOR
from segan.networks import NetParams, predict_segmentation, resize_nearest
from segan.tensor import forward
from segan.utils import derive_seed, substream

# ---------------------------------------------------------------------------
# eager loss twins


def _softmax(x: np.ndarray) -> np.ndarray:
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def pixel_ce(logits: np.ndarray, onehot: np.ndarray) -> float:
    """Mean over pixels of -log softmax probability of the marked class; the
    twin of ``pixel_ce_node``, so of the self-training and semantic losses."""
    logits = np.asarray(logits, dtype=np.float64)
    onehot = np.asarray(onehot, dtype=np.float64)
    if logits.shape != onehot.shape:
        raise ValueError(f"logits shape {logits.shape} != labels shape {onehot.shape}")
    if not (np.isin(onehot, (0.0, 1.0)).all() and np.allclose(onehot.sum(axis=-1), 1.0)):
        raise ValueError("labels must be one-hot along the last axis")
    p = np.clip(_softmax(logits), PROB_FLOOR, 1 - PROB_FLOOR)
    return float(-np.mean((np.log(p) * onehot).sum(axis=-1)))


def seg_loss(
    logits_src: np.ndarray, y_onehot: np.ndarray, logits_aug: np.ndarray | None = None
) -> float:
    if logits_aug is None:
        return pixel_ce(logits_src, y_onehot)
    return 0.5 * pixel_ce(logits_src, y_onehot) + 0.5 * pixel_ce(logits_aug, y_onehot)


def consistency_loss(probs_a: np.ndarray, probs_b: np.ndarray) -> float:
    """Twin of ``consistency_loss_node``, so of the perceptual loss too."""
    a = np.asarray(probs_a, dtype=np.float64)
    b = np.asarray(probs_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"probability map shapes differ: {a.shape} vs {b.shape}")
    return float(np.mean(np.square(a - b).sum(axis=-1)))


def _mean_log_d(raw: np.ndarray, target_real: bool) -> float:
    raw = np.asarray(raw, dtype=np.float64)
    p = _sigmoid(raw) if target_real else _sigmoid(-raw)
    return float(np.mean(np.log(np.clip(p, PROB_FLOOR, 1 - PROB_FLOOR))))


def adversarial_loss(
    d_src: np.ndarray, d_tgt: np.ndarray, d_aug: np.ndarray | None = None
) -> float:
    total = _mean_log_d(d_src, target_real=False) + _mean_log_d(d_tgt, target_real=True)
    if d_aug is not None:
        total += _mean_log_d(d_aug, target_real=False)
    return total


def style_adversarial_loss(
    d_real_tgt: np.ndarray, d_src: np.ndarray, d_transferred: np.ndarray
) -> float:
    return (
        _mean_log_d(d_real_tgt, target_real=True)
        + _mean_log_d(d_src, target_real=False)
        + _mean_log_d(d_transferred, target_real=False)
    )


# ---------------------------------------------------------------------------
# gradients, stability, bounds


def finite_diff_grad(graph, loss: int, wrt_id: int, feeds: dict, h: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of the loss w.r.t. one leaf, in float64.
    Cost is two forward passes per coordinate of the leaf."""
    base = {i: np.asarray(v, dtype=np.float64) for i, v in feeds.items()}
    x = base[wrt_id].copy()
    grad = np.zeros_like(x)
    flat_x = x.reshape(-1)
    flat_g = grad.reshape(-1)
    for j in range(flat_x.size):
        orig = flat_x[j]
        flat_x[j] = orig + h
        hi = forward(graph, {**base, wrt_id: x})[loss]
        flat_x[j] = orig - h
        lo = forward(graph, {**base, wrt_id: x})[loss]
        flat_x[j] = orig
        flat_g[j] = (float(hi) - float(lo)) / (2 * h)
    return grad


def stability_index(miou_series, window_fraction: float = 1.0 / 3.0) -> float:
    """Population standard deviation of the last ceil(len * window_fraction)
    points of an evaluation series (at least 5); lower is a steadier finish."""
    series = np.asarray(list(miou_series), dtype=np.float64)
    if not 0 < window_fraction <= 1:
        raise ValueError(f"window_fraction must be in (0, 1], got {window_fraction}")
    n = math.ceil(len(series) * window_fraction)
    if n < 5:
        raise ValueError(
            f"stability window holds {n} points, need at least 5; "
            f"series length {len(series)}"
        )
    return float(np.std(series[-n:]))


def negative_classes(gain: np.ndarray) -> tuple[int, ...]:
    """The classes a transfer gain says the adaptation made worse."""
    return tuple(int(c) for c in np.where(np.asarray(gain) < 0)[0])


def dudley_objective(alpha: float, R: float, n: int) -> float:
    """4a/sqrt(n) + (12 sqrt(R)/n) log(sqrt(n)/a); its unique minimizer over
    (0, sqrt(n)] is alpha* = 3 sqrt(R/n) whenever that lies inside."""
    if not 0 < alpha <= math.sqrt(n):
        raise ValueError(f"alpha must lie in (0, sqrt(n)], got {alpha}")
    if R <= 0:
        raise ValueError(f"R must be > 0, got {R}")
    return 4 * alpha / math.sqrt(n) + (12 * math.sqrt(R) / n) * math.log(math.sqrt(n) / alpha)


# ---------------------------------------------------------------------------
# kernels and resizing


def conv_forward_taps(xp: np.ndarray, w: np.ndarray, out_shape, stride: int) -> np.ndarray:
    """Cross-correlation of the padded ``xp`` (n, Hp, Wp, c_in) with ``w``
    (kh, kw, c_in, c_out) as a sum over kernel taps: tap (ky, kx) adds the
    strided input slice it touches times that tap's weight matrix, in
    row-major tap order from zero."""
    n, ho, wo, c_out = out_shape
    kh, kw, c_in, _ = w.shape
    acc = np.zeros((n * ho * wo, c_out), dtype=xp.dtype)
    for ky in range(kh):
        for kx in range(kw):
            tap = xp[:, ky : ky + stride * ho : stride, kx : kx + stride * wo : stride, :]
            acc += tap.reshape(-1, c_in) @ w[ky, kx]
    return acc.reshape(out_shape)


def conv_bwd_input_taps(g: np.ndarray, w: np.ndarray, padded_hw, stride: int) -> np.ndarray:
    """Gradient of ``conv_forward_taps`` w.r.t. its padded input, as a sum
    over kernel taps: tap (ky, kx) adds the output gradient times that tap's
    transposed weight matrix into the strided slice it read."""
    n, ho, wo, c_out = g.shape
    kh, kw, c_in, _ = w.shape
    gxp = np.zeros((n, *padded_hw, c_in), dtype=g.dtype)
    gmat = g.reshape(-1, c_out)
    for ky in range(kh):
        for kx in range(kw):
            contrib = gmat @ w[ky, kx].T
            gxp[:, ky : ky + stride * ho : stride, kx : kx + stride * wo : stride, :] += (
                contrib.reshape(n, ho, wo, c_in)
            )
    return gxp


def space_to_depth(a: np.ndarray, s: int) -> np.ndarray:
    """Regroup ``a`` (n, H, W, *rest) into its s·s phases: the C-contiguous
    (n, H/s, W/s, s, s, *rest) array whose [b, i, j, py, px] is
    ``a[b, s·i + py, s·j + px]``. Swapping axes 2 and 3 back and merging
    them undoes it."""
    n, h, w = a.shape[:3]
    return np.ascontiguousarray(a.reshape(n, h // s, s, w // s, s, *a.shape[3:]).swapaxes(2, 3))


def phase_matrix_by_space_to_depth(w: np.ndarray, s: int) -> np.ndarray:
    """The input gradient's kernel matrix built step by step: the weight
    zero-extended to a multiple of ``s`` taps a side, regrouped into its
    (th, tw, s, s, c_in, c_out) phase kernel, flipped, and its channel axes
    swapped into (ty, tx, co) rows by (py, px, ci) columns."""
    kh, kw, c_in, c_out = w.shape
    th, tw = -(-kh // s), -(-kw // s)
    wz = np.zeros((s * th, s * tw, c_in, c_out), dtype=w.dtype)
    wz[:kh, :kw] = w
    phases = space_to_depth(wz[None], s)[0]
    return phases[::-1, ::-1].transpose(0, 1, 5, 2, 3, 4).reshape(th * tw * c_out, s * s * c_in)


def upsample_bwd_by_reduce(g: np.ndarray, factor: int) -> np.ndarray:
    """Gradient of nearest upsampling as one numpy reduction over the
    (n, h, f, w, f, c) view's phase axes."""
    n, ho, wo, c = g.shape
    return g.reshape(n, ho // factor, factor, wo // factor, factor, c).sum(axis=(2, 4))


def resize_by_fancy_index(arr: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Nearest resize of (..., h, w, c) by one 2-d fancy index."""
    h, w = arr.shape[-3], arr.shape[-2]
    iy = (np.arange(out_h) * h) // out_h
    ix = (np.arange(out_w) * w) // out_w
    return arr[..., iy[:, None], ix, :]


# ---------------------------------------------------------------------------
# inference


def multi_scale_predict(net: NetParams, images: np.ndarray,
                        scales) -> tuple[np.ndarray, np.ndarray]:
    """Average softmax maps over whole resized copies of the stack: each
    scale resizes every image, predicts the resized stack and resizes the
    probabilities back before they are summed."""
    images = np.asarray(images, dtype=np.float32)
    squeeze = images.ndim == 3
    batch = images[None] if squeeze else images
    scale = net.spec.scale
    n, h, w, _ = batch.shape
    total = None
    for s in scales:
        th = max(scale, int(round(h * s / scale)) * scale)
        tw = max(scale, int(round(w * s / scale)) * scale)
        scaled = batch if (th, tw) == (h, w) else resize_nearest(batch, th, tw)
        probs, _ = predict_segmentation(net, scaled)
        if (th, tw) != (h, w):
            probs = resize_nearest(probs, h, w)
        total = probs if total is None else total + probs
    avg = total / np.float32(len(scales))
    labels = avg.argmax(axis=-1).astype(np.uint8)
    if squeeze:
        return avg[0], labels[0]
    return avg, labels


# ---------------------------------------------------------------------------
# per-scene dataset generation


def scipy_style(image: np.ndarray, ap: AppearanceParams) -> np.ndarray:
    """One (h, w, 3) image through the appearance transform, with scipy's
    Gaussian blur."""
    img = np.asarray(image, dtype=np.float64)
    if ap.palette_rotation != 0:
        img = img @ _rotation_about_gray(ap.palette_rotation).T
    if ap.brightness != 0:
        img = img + ap.brightness
    if ap.blur > 0:
        img = gaussian_filter(img, sigma=(ap.blur, ap.blur, 0), mode="reflect", truncate=3.0)
    if ap.texture_freq > 0:
        h, w = img.shape[:2]
        yy, xx = np.mgrid[0:h, 0:w]
        u = (np.cos(TEXTURE_ANGLE) * xx + np.sin(TEXTURE_ANGLE) * yy) / max(h, w)
        img = img + TEXTURE_AMP * np.sin(2 * np.pi * ap.texture_freq * u)[..., None]
    return np.clip(img, 0.0, 1.0).astype(np.float32)


def generate_scene(params: ShiftParams, seed: int, h: int, w: int,
                   classes: int) -> tuple[np.ndarray, np.ndarray]:
    """One styled scene, its image and label map, rendered and styled alone."""
    rng = substream(seed, "scene")
    label = np.zeros((h, w), dtype=np.uint8)
    yy, xx = np.ogrid[0:h, 0:w]
    m = min(h, w)
    for cls, prior in enumerate(params.layout, start=1):
        present = rng.random() < prior.prob
        offset = _cov_factor(prior.cov) @ rng.standard_normal(2)
        size_u = rng.uniform(*prior.size_range)
        second_u = rng.uniform(*prior.size_range)
        upright = rng.random() < 0.5
        if not present:
            continue
        cx = (prior.mean[0] + offset[0]) * w
        cy = (prior.mean[1] + offset[1]) * h
        kind = (cls - 1) % 3
        if kind == 0:
            mask = (np.abs(yy - cy) <= size_u * m) & (np.abs(xx - cx) <= second_u * m)
        elif kind == 1:
            mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= (size_u * m) ** 2
        else:
            half_len, half_thick = 1.6 * size_u * m, 0.35 * size_u * m
            if upright:
                mask = (np.abs(yy - cy) <= half_len) & (np.abs(xx - cx) <= half_thick)
            else:
                mask = (np.abs(yy - cy) <= half_thick) & (np.abs(xx - cx) <= half_len)
        label[mask] = cls
    jitter = rng.normal(0.0, 0.04, size=(classes, 3))
    colors = np.clip(PALETTE[:classes] + jitter, 0.0, 1.0)
    image = colors[label].astype(np.float64)
    image += rng.normal(0.0, PIXEL_NOISE, size=(h, w, 3))
    image = np.clip(image, 0.0, 1.0).astype(np.float32)
    return scipy_style(image, params.appearance), label


def per_scene_dataset(source: ShiftParams, target: ShiftParams, n_source: int, n_target: int,
                      seed: int, h: int, w: int, classes: int) -> dict[str, np.ndarray]:
    """The four arrays of ``generate_dataset``, one scene at a time."""
    arrays = {}
    for domain, params, n in (("source", source, n_source), ("target", target, n_target)):
        scenes = [generate_scene(params, derive_seed(seed, "data", domain, i), h, w, classes)
                  for i in range(n)]
        arrays[f"{domain}/images"] = np.stack([image for image, _ in scenes])
        arrays[f"{domain}/labels"] = np.stack([label for _, label in scenes])
    return arrays


# ---------------------------------------------------------------------------
# containers in memory


def sgt_bytes(arr: np.ndarray) -> bytes:
    """The bytes ``sgt.write_sgt`` writes for ``arr``, built in memory."""
    arr = np.ascontiguousarray(arr)
    return sgt._header(arr) + sgt._payload(arr).tobytes()


def checkpoint_corruptions(buf: bytes):
    """Yield ``(case, bytes)`` for each corruption of a checkpoint's bytes:
    the file cut at every byte offset, and each tensor's SGT1 dtype and ndim
    bytes with each single bit, then all bits, flipped."""
    for cut in range(len(buf)):
        yield f"cut-{cut}", buf[:cut]
    (mlen,) = struct.unpack_from("<I", buf, 0)
    offset = 4 + mlen
    for entry in json.loads(buf[4:offset])["tensors"]:
        for field, pos in (("dtype", offset + 4), ("ndim", offset + 5)):
            for mask in (1, 2, 4, 8, 16, 32, 64, 128, 255):
                bad = bytearray(buf)
                bad[pos] ^= mask
                yield f"{entry['name']}-{field}^{mask}", bytes(bad)
        offset += entry["bytes"]


# ---------------------------------------------------------------------------
# malformed datasets


def resave_dataset(tmp_path: Path, edit) -> Path:
    """Save a small dataset, apply ``edit`` to its arrays and metadata, and
    write them back in the same container. The loaded arrays are read-only
    views of the file's map, so ``edit`` works on copies."""
    prior = ClassPrior(prob=1.0, mean=(0.5, 0.5), cov=((0.005, 0.0), (0.0, 0.005)),
                       size_range=(0.1, 0.2))
    one_class = ShiftParams(layout=(prior,))
    ds = generate_dataset(one_class, one_class, n_source=2, n_target=1, seed=11, h=32, w=32,
                          classes=2)
    save_dataset(ds, tmp_path)
    arrays, meta = sgt.load_checkpoint(tmp_path / "dataset.sgt")
    arrays = {name: arr.copy() for name, arr in arrays.items()}
    edit(arrays, meta)
    sgt.save_checkpoint(tmp_path / "dataset.sgt", arrays, meta)
    return tmp_path


MALFORMED_DATASETS = [
    pytest.param(lambda a, m: m.update(format="segan-dataset-v1"), "format", id="format"),
    pytest.param(lambda a, m: a.pop("target/labels"), "arrays", id="missing-array"),
    pytest.param(lambda a, m: a.update(extra=np.zeros(1, np.float32)), "arrays",
                 id="extra-array"),
    pytest.param(lambda a, m: a.update({"source/images": a["source/images"][:, :16]}),
                 "source images", id="image-shape"),
    pytest.param(lambda a, m: a.update({"source/labels": a["source/labels"][:1]}),
                 "source images", id="label-count"),
    pytest.param(lambda a, m: a.update({"target/images": a["target/images"].astype(np.float64)}),
                 "target images", id="image-dtype"),
    pytest.param(lambda a, m: a.update({"target/labels": a["target/labels"].astype(np.float32)}),
                 "target images", id="label-dtype"),
    pytest.param(lambda a, m: a.update({"target/images": a["target/images"][:0],
                                        "target/labels": a["target/labels"][:0]}), "n >= 1",
                 id="empty-domain"),
    pytest.param(lambda a, m: a.update({"source/images": a["source/images"][0]}),
                 "source images", id="image-ndim"),
    pytest.param(lambda a, m: m.pop("classes"), "metadata", id="missing-meta"),
    pytest.param(lambda a, m: m.update(h="32"), r"metadata: h: expected an integer",
                 id="string-meta"),
    pytest.param(lambda a, m: a["source/labels"].__setitem__((0, 0, 0), 2),
                 "source labels reach 2, but the dataset has 2 classes", id="label-range"),
    pytest.param(lambda a, m: a["target/images"].__setitem__((0, 0, 0, 0), np.nan),
                 "'target/images' holds non-finite values", id="nan-image"),
]


# ---------------------------------------------------------------------------
# resident memory

SMAPS = Path("/proc/self/smaps")


def mapped_rss_kb(filename: str) -> int:
    """The resident kB of this process's maps of files named ``filename``,
    summed over ``/proc/self/smaps``; 0 when no such map exists."""
    total, counting = 0, False
    for line in SMAPS.read_text().splitlines():
        fields = line.split()
        if fields[0].endswith(":"):
            if counting and fields[0] == "Rss:":
                total += int(fields[1])
        elif "-" in fields[0]:  # a mapping's header line: range perms offset dev inode [path]
            counting = Path(" ".join(fields[5:])).name == filename
    return total
