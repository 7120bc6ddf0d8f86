"""Synthetic two-domain segmentation benchmark.

Scenes are flat-colored shapes (rectangles, disks, bars) on a plain
background, rendered into a label map and an RGB image, then pushed through
a parametric appearance transform. A domain is a pair (appearance params,
layout params); shifting either between source and target produces a
controlled domain gap whose severity is measurable.

All randomness is driven by per-scene integer seeds, and every scene draws
the same number of variates regardless of which objects end up present, so
streams stay aligned across parameter changes.

A domain is rendered scene by scene and then styled as one stack:
:func:`apply_domain_style` takes an (h, w, 3) image or an (n, h, w, 3)
stack and gives each image of a stack the bytes it gets alone. Its blur is a
separable numpy filter, bit-identical to ``scipy.ndimage.gaussian_filter``
with ``mode="reflect"`` and ``truncate=3.0``, so the program imports numpy
only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import sgt
from .utils import ConfigError, derive_seed, record_from_dict, record_to_dict, substream

PALETTE = np.array(
    [
        [0.50, 0.50, 0.44],  # background
        [0.78, 0.22, 0.20],
        [0.20, 0.72, 0.30],
        [0.22, 0.30, 0.80],
        [0.85, 0.75, 0.20],
        [0.60, 0.20, 0.70],
        [0.20, 0.70, 0.70],
        [0.90, 0.50, 0.10],
    ]
)
PIXEL_NOISE = 0.02
TEXTURE_AMP = 0.05
TEXTURE_ANGLE = 0.7  # radians, fixed stripe direction
HIST_BINS = 16  # per channel, in the color histograms of the appearance gap
BLUR_TRUNCATE = 3.0  # blur kernel radius, in standard deviations
STYLE_SLICE = 8  # images per float64 slice of a styled stack; the blur is memory-bound


@dataclass
class AppearanceParams:
    """Domain appearance transform, applied in this order: palette rotation
    about the gray axis (radians), brightness offset, Gaussian blur (sigma,
    pixels), additive sinusoidal texture (cycles across the image)."""

    palette_rotation: float = 0.0
    brightness: float = 0.0
    blur: float = 0.0
    texture_freq: float = 0.0

    def __post_init__(self):
        if self.blur < 0:
            raise ConfigError("blur", f"blur must be >= 0, got {self.blur}")
        if self.texture_freq < 0:
            raise ConfigError("texture_freq", f"texture_freq must be >= 0, got {self.texture_freq}")


@dataclass
class ClassPrior:
    """Placement prior for one foreground class.

    ``mean`` is the (x, y) center in relative [0,1] coordinates, ``cov`` its
    2x2 covariance in relative units, ``size_range`` the half-size draw range
    as a fraction of min(h, w), ``prob`` the per-scene occurrence probability.
    """

    prob: float = 1.0
    mean: tuple[float, float] = (0.5, 0.5)
    cov: tuple[tuple[float, float], tuple[float, float]] = ((0.01, 0.0), (0.0, 0.01))
    size_range: tuple[float, float] = (0.08, 0.16)

    def __post_init__(self):
        if not 0 <= self.prob <= 1:
            raise ConfigError("prob", f"occurrence prob must be in [0,1], got {self.prob}")
        lo, hi = self.size_range
        if not 0 < lo <= hi:
            raise ConfigError("size_range",
                              f"size_range must satisfy 0 < lo <= hi, got {self.size_range}")
        self.mean = tuple(float(v) for v in self.mean)
        self.cov = tuple(tuple(float(v) for v in row) for row in self.cov)
        self.size_range = (float(lo), float(hi))
        _cov_factor(self.cov)  # rejects a covariance that is not positive semi-definite


@dataclass
class ShiftParams:
    """A domain: its appearance transform and the placement priors of
    classes 1..len(layout); class 0 is background."""

    appearance: AppearanceParams = field(default_factory=AppearanceParams)
    layout: tuple[ClassPrior, ...] = ()


def _cov_factor(cov) -> np.ndarray:
    c = np.asarray(cov, dtype=np.float64)
    if c.shape != (2, 2):
        raise ValueError(f"covariance must be 2x2, got shape {c.shape}")
    try:
        return np.linalg.cholesky(c)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(c)
        if vals.min() < -1e-9:
            raise ValueError(
                f"class prior covariance is not positive semi-definite (eigenvalue "
                f"{vals.min():.3g})"
            ) from None
        return vecs * np.sqrt(np.clip(vals, 0, None))


def _rotation_about_gray(theta: float) -> np.ndarray:
    """3x3 rotation by theta about the (1,1,1) axis; gray values are fixed."""
    axis = np.ones(3) / np.sqrt(3.0)
    k = np.array(
        [
            [0, -axis[2], axis[1]],
            [axis[2], 0, -axis[0]],
            [-axis[1], axis[0], 0],
        ]
    )
    return np.eye(3) + np.sin(theta) * k + (1 - np.cos(theta)) * (k @ k)


def _blur_weights(sigma: float) -> np.ndarray:
    """scipy.ndimage's Gaussian kernel: radius ``int(3 sigma + 0.5)``,
    normalised, reversed for correlation."""
    r = int(BLUR_TRUNCATE * sigma + 0.5)
    x = np.arange(-r, r + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x**2)
    return (phi / phi.sum())[::-1]


def _blur_axis(img: np.ndarray, weights: np.ndarray, axis: int) -> np.ndarray:
    """Correlate float64 ``img`` with the symmetric ``weights`` along ``axis``.

    scipy's ``reflect`` boundary is numpy's ``symmetric`` pad (numpy's
    ``reflect`` is scipy's ``mirror``), and the sum runs in the order of
    scipy's symmetric-kernel branch: the centre tap, then each pair of taps
    from the outermost in, so every output is bit-identical to scipy's.
    """
    r = len(weights) // 2
    n = img.shape[axis]
    pad = [(0, 0)] * img.ndim
    pad[axis] = (r, r)
    padded = np.pad(img, pad, mode="symmetric")

    def tap(j):  # the input shifted by j along the axis
        return padded[(slice(None),) * axis + (slice(r + j, r + j + n),)]

    out = tap(0) * weights[r]
    for j in range(r, 0, -1):
        out += (tap(-j) + tap(j)) * weights[r - j]
    return out


def apply_domain_style(images: np.ndarray, ap: AppearanceParams) -> np.ndarray:
    """Push an (h, w, 3) image or an (n, h, w, 3) stack in [0,1] through the
    appearance transform; the result is float32 of the same shape.

    Identity parameters return the input values unchanged. The blur kernel
    is symmetric with reflecting boundaries, so it preserves per-channel
    means exactly up to float rounding; it equals
    ``scipy.ndimage.gaussian_filter(img, (blur, blur, 0), mode="reflect",
    truncate=3.0)`` bit for bit. A stack runs in float64 slices of
    :data:`STYLE_SLICE` images, and each image comes out with the bytes it
    gets when styled alone.
    """
    images = np.asarray(images)
    if images.ndim not in (3, 4) or images.shape[-1] != 3:
        raise ValueError(
            f"expected an (h, w, 3) image or (n, h, w, 3) stack, got shape {images.shape}"
        )
    h, w = images.shape[-3:-1]
    stack = images.reshape(-1, h, w, 3)
    rotation = weights = texture = None
    if ap.palette_rotation != 0:
        rotation = _rotation_about_gray(ap.palette_rotation).T
    if ap.blur > 0:
        weights = _blur_weights(ap.blur)
    if ap.texture_freq > 0:
        yy, xx = np.mgrid[0:h, 0:w]
        u = (np.cos(TEXTURE_ANGLE) * xx + np.sin(TEXTURE_ANGLE) * yy) / max(h, w)
        texture = TEXTURE_AMP * np.sin(2 * np.pi * ap.texture_freq * u)[..., None]
    out = np.empty(stack.shape, dtype=np.float32)
    for lo in range(0, len(stack), STYLE_SLICE):
        img = stack[lo : lo + STYLE_SLICE].astype(np.float64)
        if rotation is not None:
            img = img @ rotation
        if ap.brightness != 0:
            img = img + ap.brightness
        if weights is not None:
            img = _blur_axis(_blur_axis(img, weights, 1), weights, 2)
        if texture is not None:
            img = img + texture
        out[lo : lo + STYLE_SLICE] = np.clip(img, 0.0, 1.0)
    return out.reshape(images.shape)


def relative_appearance(src: AppearanceParams, tgt: AppearanceParams) -> AppearanceParams:
    """Appearance transform carrying source-styled images toward the target
    style. Exact when the source appearance is the identity; otherwise the
    blur and texture components are first-order compositions."""
    blur = np.sqrt(max(tgt.blur**2 - src.blur**2, 0.0))
    return AppearanceParams(
        palette_rotation=tgt.palette_rotation - src.palette_rotation,
        brightness=tgt.brightness - src.brightness,
        blur=float(blur),
        texture_freq=tgt.texture_freq,
    )


def _render_scene(
    layout: tuple[ClassPrior, ...], factors: list[np.ndarray], seed: int, h: int, w: int,
    classes: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Render one unstyled scene: its float32 image and uint8 label map.
    ``factors`` are the priors' covariance factors. Classes cycle through
    rectangle / disk / bar shapes in prior order; later classes occlude
    earlier ones."""
    rng = substream(seed, "scene")
    label = np.zeros((h, w), dtype=np.uint8)
    yy, xx = np.ogrid[0:h, 0:w]
    m = min(h, w)

    for cls, (prior, factor) in enumerate(zip(layout, factors), start=1):
        # draw everything up front so the stream shape is layout-independent
        present = rng.random() < prior.prob
        offset = factor @ rng.standard_normal(2)
        size_u = rng.uniform(*prior.size_range)
        second_u = rng.uniform(*prior.size_range)
        upright = rng.random() < 0.5
        if not present:
            continue
        cx = (prior.mean[0] + offset[0]) * w
        cy = (prior.mean[1] + offset[1]) * h
        kind = (cls - 1) % 3
        if kind == 0:  # rectangle, independent half-sizes
            hy, hx = size_u * m, second_u * m
            mask = (np.abs(yy - cy) <= hy) & (np.abs(xx - cx) <= hx)
        elif kind == 1:  # disk
            r = size_u * m
            mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
        else:  # bar, 1.6:0.35 aspect, axis-aligned
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
    return np.clip(image, 0.0, 1.0).astype(np.float32), label


DATASET_FORMAT = "segan-dataset-v2"
DATASET_FILE = "dataset.sgt"
ARRAY_NAMES = ("source/images", "source/labels", "target/images", "target/labels")


@dataclass
class DomainDataset:
    """Source scenes with labels, target scenes with held-out labels.

    ``arrays`` maps each of :data:`ARRAY_NAMES` to one stacked, read-only
    array: ``<domain>/images`` is (n, h, w, 3) float32 in [0, 1] and
    ``<domain>/labels`` is (n, h, w) uint8. A loaded dataset's arrays are
    read-only views of one map of ``dataset.sgt``; a read keeps its pages
    resident until ``sgt.release_pages`` drops them, which every reader in
    the program does after each batch or slice. Training code may touch the source
    arrays and :meth:`target_images` only; target labels are exposed solely
    through :meth:`eval_target_labels`.
    """

    h: int
    w: int
    classes: int
    seed: int
    source_params: ShiftParams
    target_params: ShiftParams
    arrays: dict[str, np.ndarray]

    def __post_init__(self):
        for arr in self.arrays.values():
            arr.flags.writeable = False  # every caller shares these arrays

    @property
    def n_source(self) -> int:
        return self.arrays["source/images"].shape[0]

    @property
    def n_target(self) -> int:
        return self.arrays["target/images"].shape[0]

    def source_images(self) -> np.ndarray:
        return self.arrays["source/images"]

    def source_labels(self) -> np.ndarray:
        return self.arrays["source/labels"]

    def target_images(self) -> np.ndarray:
        return self.arrays["target/images"]

    def eval_target_labels(self) -> np.ndarray:
        """Ground-truth target labels. Evaluation and reporting only; no
        training path may consume these."""
        return self.arrays["target/labels"]


def benchmark_shifts() -> tuple[ShiftParams, ShiftParams]:
    """Stock two-domain benchmark for the four-class setup.

    The source domain renders with the identity appearance; the target
    rotates the palette, lifts brightness, blurs, adds texture, and drifts
    the layout priors (looser positions, lower presence for class 1).
    """
    src_priors = (
        ClassPrior(prob=0.95, mean=(0.32, 0.34), cov=((0.006, 0.0), (0.0, 0.006)),
                   size_range=(0.13, 0.21)),
        ClassPrior(prob=0.9, mean=(0.7, 0.4), cov=((0.006, 0.0), (0.0, 0.006)),
                   size_range=(0.12, 0.2)),
        ClassPrior(prob=0.9, mean=(0.5, 0.74), cov=((0.006, 0.0), (0.0, 0.006)),
                   size_range=(0.11, 0.18)),
    )
    tgt_priors = (
        ClassPrior(prob=0.7, mean=(0.42, 0.3), cov=((0.009, 0.0), (0.0, 0.009)),
                   size_range=(0.13, 0.21)),
        ClassPrior(prob=0.95, mean=(0.6, 0.52), cov=((0.009, 0.0), (0.0, 0.009)),
                   size_range=(0.12, 0.2)),
        ClassPrior(prob=0.8, mean=(0.48, 0.68), cov=((0.009, 0.0), (0.0, 0.009)),
                   size_range=(0.11, 0.18)),
    )
    source = ShiftParams(layout=src_priors)
    target = ShiftParams(
        appearance=AppearanceParams(
            palette_rotation=0.8, brightness=0.1, blur=0.7, texture_freq=4.0
        ),
        layout=tgt_priors,
    )
    return source, target


def generate_dataset(
    source_params: ShiftParams,
    target_params: ShiftParams,
    n_source: int,
    n_target: int,
    seed: int,
    h: int,
    w: int,
    classes: int,
) -> DomainDataset:
    """Render each domain scene by scene, each from its own seed, and style
    its stack once."""
    if n_source < 1 or n_target < 1:
        raise ValueError(f"need at least one scene per domain, got {n_source}/{n_target}")
    if classes < 2:
        raise ValueError(f"need at least 2 classes, got {classes}")
    if classes > len(PALETTE):
        raise ValueError(f"palette supports at most {len(PALETTE)} classes, got {classes}")
    if min(h, w) < 8:
        raise ValueError(f"scene size {h}x{w} too small")
    arrays = {}
    for domain, params, n in (("source", source_params, n_source),
                              ("target", target_params, n_target)):
        if len(params.layout) != classes - 1:
            raise ValueError(f"{domain} layout must define {classes - 1} class priors, "
                             f"got {len(params.layout)}")
        factors = [_cov_factor(prior.cov) for prior in params.layout]
        images = np.empty((n, h, w, 3), dtype=np.float32)
        labels = np.empty((n, h, w), dtype=np.uint8)
        for i in range(n):
            images[i], labels[i] = _render_scene(
                params.layout, factors, derive_seed(seed, "data", domain, i), h, w, classes
            )
        arrays[f"{domain}/images"] = apply_domain_style(images, params.appearance)
        arrays[f"{domain}/labels"] = labels
    return DomainDataset(h, w, classes, seed, source_params, target_params, arrays)


# ---------------------------------------------------------------------------
# shift severity


def color_counts(images: np.ndarray) -> np.ndarray:
    """Per-channel pixel counts in :data:`HIST_BINS` bins over [0,1], as a
    (channels, HIST_BINS) integer array. The counts of a stack are the sum
    of the counts of its slices, exactly."""
    images = np.asarray(images)
    return np.stack([np.histogram(images[..., c], bins=HIST_BINS, range=(0.0, 1.0))[0]
                     for c in range(images.shape[-1])])


def _normalized(counts: np.ndarray) -> np.ndarray:
    """Per-channel normalized histograms, concatenated."""
    return (counts / np.maximum(counts.sum(axis=1, keepdims=True), 1)).reshape(-1)


def count_gap(counts_a: np.ndarray, counts_b: np.ndarray) -> float:
    """:func:`appearance_gap` from two collections' :func:`color_counts`."""
    return float(np.linalg.norm(_normalized(counts_a) - _normalized(counts_b)))


def appearance_gap(images_a: np.ndarray, images_b: np.ndarray) -> float:
    """L2 distance between mean color histograms of two image collections."""
    return count_gap(color_counts(images_a), color_counts(images_b))


def class_frequencies(labels: np.ndarray, classes: int) -> np.ndarray:
    counts = np.bincount(np.asarray(labels).reshape(-1), minlength=classes).astype(np.float64)
    return counts / counts.sum()


def layout_gap(labels_a: np.ndarray, labels_b: np.ndarray, classes: int) -> float:
    """Total-variation distance between class pixel-frequency vectors."""
    pa = class_frequencies(labels_a, classes)
    pb = class_frequencies(labels_b, classes)
    return float(0.5 * np.abs(pa - pb).sum())


@dataclass
class ShiftSeverity:
    appearance_gap: float
    layout_gap: float


def shift_severity(ds: DomainDataset) -> ShiftSeverity:
    """Measured gap between the rendered domains. Uses target labels, so it
    is a reporting tool, not a training signal."""
    return ShiftSeverity(
        appearance_gap=appearance_gap(ds.source_images(), ds.target_images()),
        layout_gap=layout_gap(ds.source_labels(), ds.eval_target_labels(), ds.classes),
    )


# ---------------------------------------------------------------------------
# on-disk layout: <dir>/dataset.sgt, one checkpoint container holding
# ARRAY_NAMES, with the shift parameters in its metadata


def save_dataset(ds: DomainDataset, dirpath) -> None:
    root = Path(dirpath)
    root.mkdir(parents=True, exist_ok=True)
    meta = record_to_dict(ds)
    del meta["arrays"]
    sgt.save_checkpoint(root / DATASET_FILE, {k: ds.arrays[k] for k in ARRAY_NAMES},
                        {"format": DATASET_FORMAT, **meta})


def load_dataset(dirpath) -> DomainDataset:
    """The dataset saved in ``dirpath``. The container must hold exactly
    :data:`ARRAY_NAMES`, each array of its expected shape and dtype, and
    every payload is checked: its values are finite, its labels within the
    class count.

    Each array is a read-only view of the file's one map
    (``sgt.load_checkpoint``), whose finite check releases the map's pages
    as it goes, so the load holds none of the payload. The label-range check
    reads the label pages, 1/12 of the payload, and then releases the map's
    pages (``sgt.release_pages``), as every reader of a map does after each
    batch or slice. A mapped read brings in whole runs of pages around each
    fault: on ext4 (Linux 6.18), one random batch of two stock scenes made
    5.8 MB of the 10.6 MB source arrays resident, and 40 batches all of
    it, so reads that are never released keep the dataset resident. A map
    outlives a rename over the file (every writer in the program replaces
    files by rename), but truncating or rewriting ``dataset.sgt`` in place
    while a process loads or reads it ends that process with SIGBUS.
    """
    path = Path(dirpath) / DATASET_FILE
    if not path.exists():
        raise FileNotFoundError(f"no dataset at {path}")
    arrays, meta = sgt.load_checkpoint(path)
    fmt = meta.pop("format", None)
    if fmt != DATASET_FORMAT:
        raise sgt.FormatError(f"{path}: dataset format {fmt!r}, expected {DATASET_FORMAT!r}")
    if sorted(arrays) != sorted(ARRAY_NAMES):
        raise sgt.FormatError(f"{path}: arrays {sorted(arrays)}, expected {sorted(ARRAY_NAMES)}")
    try:
        ds = record_from_dict(DomainDataset, meta, arrays=arrays)
    except ConfigError as e:
        raise sgt.FormatError(f"{path}: bad dataset metadata: {e}") from None
    h, w = ds.h, ds.w
    for domain in ("source", "target"):
        images, labels = arrays[f"{domain}/images"], arrays[f"{domain}/labels"]
        n = images.shape[0] if images.ndim == 4 else 0
        if n < 1 or (images.shape, images.dtype, labels.shape, labels.dtype) != (
            (n, h, w, 3), np.float32, (n, h, w), np.uint8
        ):
            raise sgt.FormatError(
                f"{path}: {domain} images {images.dtype} {images.shape} and labels "
                f"{labels.dtype} {labels.shape}; expected n >= 1 scenes of float32 "
                f"(n, {h}, {w}, 3) and uint8 (n, {h}, {w})"
            )
        top = labels.max()
        sgt.release_pages(labels)
        if top >= ds.classes:
            raise sgt.FormatError(
                f"{path}: {domain} labels reach {top}, but the dataset has "
                f"{ds.classes} classes"
            )
    return ds
