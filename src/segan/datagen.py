"""Synthetic two-domain segmentation benchmark.

Scenes are flat-colored shapes (rectangles, disks, bars) on a plain
background, rendered into a label map and an RGB image, then pushed through
a parametric appearance transform. A domain is a pair (appearance params,
layout params); shifting either between source and target produces a
controlled domain gap whose severity is measurable.

All randomness is driven by per-scene integer seeds, and every scene draws
the same number of variates regardless of which objects end up present, so
streams stay aligned across parameter changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter

from . import sgt
from .utils import derive_seed, substream

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
            raise ValueError(f"blur must be >= 0, got {self.blur}")
        if self.texture_freq < 0:
            raise ValueError(f"texture_freq must be >= 0, got {self.texture_freq}")

    def is_identity(self) -> bool:
        return (
            self.palette_rotation == 0
            and self.brightness == 0
            and self.blur == 0
            and self.texture_freq == 0
        )


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
            raise ValueError(f"occurrence prob must be in [0,1], got {self.prob}")
        lo, hi = self.size_range
        if not 0 < lo <= hi:
            raise ValueError(f"size_range must satisfy 0 < lo <= hi, got {self.size_range}")
        self.mean = tuple(float(v) for v in self.mean)
        self.cov = tuple(tuple(float(v) for v in row) for row in self.cov)
        self.size_range = (float(lo), float(hi))


@dataclass
class LayoutParams:
    """Priors for classes 1..len(priors); class 0 is background."""

    priors: tuple[ClassPrior, ...] = ()

    def __post_init__(self):
        self.priors = tuple(self.priors)


@dataclass
class ShiftParams:
    appearance: AppearanceParams = field(default_factory=AppearanceParams)
    layout: LayoutParams = field(default_factory=LayoutParams)


@dataclass
class Scene:
    image: np.ndarray  # (h, w, 3) float32 in [0, 1]
    label: np.ndarray  # (h, w) uint8


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


def apply_domain_style(image: np.ndarray, ap: AppearanceParams) -> np.ndarray:
    """Push an image in [0,1] through the appearance transform.

    Identity parameters return the input values unchanged. The blur kernel
    is symmetric with reflecting boundaries, so it preserves per-channel
    means exactly up to float rounding.
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError(f"expected (h, w, 3) image, got shape {image.shape}")
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


def generate_scene(params: ShiftParams, seed: int, h: int, w: int, classes: int) -> Scene:
    """Render one scene. Classes cycle through rectangle / disk / bar shapes
    in prior order; later classes occlude earlier ones."""
    if classes < 2:
        raise ValueError(f"need at least 2 classes, got {classes}")
    if classes > len(PALETTE):
        raise ValueError(f"palette supports at most {len(PALETTE)} classes, got {classes}")
    if len(params.layout.priors) != classes - 1:
        raise ValueError(
            f"layout must define {classes - 1} class priors, got {len(params.layout.priors)}"
        )
    if min(h, w) < 8:
        raise ValueError(f"scene size {h}x{w} too small")

    rng = substream(seed, "scene")
    label = np.zeros((h, w), dtype=np.uint8)
    yy, xx = np.ogrid[0:h, 0:w]
    m = min(h, w)

    for cls, prior in enumerate(params.layout.priors, start=1):
        # draw everything up front so the stream shape is layout-independent
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
    image = np.clip(image, 0.0, 1.0).astype(np.float32)
    image = apply_domain_style(image, params.appearance)
    return Scene(image=image, label=label)


DATASET_FORMAT = "segan-dataset-v2"
DATASET_FILE = "dataset.sgt"
ARRAY_NAMES = ("source/images", "source/labels", "target/images", "target/labels")


@dataclass
class DomainDataset:
    """Source scenes with labels, target scenes with held-out labels.

    ``arrays`` maps each of :data:`ARRAY_NAMES` to one stacked, read-only
    array: ``<domain>/images`` is (n, h, w, 3) float32 in [0, 1] and
    ``<domain>/labels`` is (n, h, w) uint8. Training code may touch the
    source arrays and :meth:`target_images` only; target labels are exposed
    solely through :meth:`eval_target_labels`.
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
    source = ShiftParams(layout=LayoutParams(src_priors))
    target = ShiftParams(
        appearance=AppearanceParams(
            palette_rotation=0.8, brightness=0.1, blur=0.7, texture_freq=4.0
        ),
        layout=LayoutParams(tgt_priors),
    )
    return source, target


def generate_dataset(
    source_params: ShiftParams,
    target_params: ShiftParams,
    n_source: int,
    n_target: int,
    seed: int,
    h: int = 64,
    w: int = 64,
    classes: int = 4,
) -> DomainDataset:
    if n_source < 1 or n_target < 1:
        raise ValueError(f"need at least one scene per domain, got {n_source}/{n_target}")
    arrays = {}
    for domain, params, n in (("source", source_params, n_source),
                              ("target", target_params, n_target)):
        scenes = [
            generate_scene(params, derive_seed(seed, "data", domain, i), h, w, classes)
            for i in range(n)
        ]
        arrays[f"{domain}/images"] = np.stack([s.image for s in scenes])
        arrays[f"{domain}/labels"] = np.stack([s.label for s in scenes])
    return DomainDataset(h, w, classes, seed, source_params, target_params, arrays)


# ---------------------------------------------------------------------------
# shift severity


def color_histogram(images: np.ndarray, bins: int = 16) -> np.ndarray:
    """Per-channel normalized histograms over [0,1], concatenated."""
    images = np.asarray(images)
    parts = []
    for c in range(images.shape[-1]):
        counts, _ = np.histogram(images[..., c], bins=bins, range=(0.0, 1.0))
        parts.append(counts / max(counts.sum(), 1))
    return np.concatenate(parts)


def appearance_gap(images_a: np.ndarray, images_b: np.ndarray) -> float:
    """L2 distance between mean color histograms of two image collections."""
    return float(np.linalg.norm(color_histogram(images_a) - color_histogram(images_b)))


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


def _appearance_to_dict(ap: AppearanceParams) -> dict:
    return {
        "palette_rotation": ap.palette_rotation,
        "brightness": ap.brightness,
        "blur": ap.blur,
        "texture_freq": ap.texture_freq,
    }


def _prior_to_dict(p: ClassPrior) -> dict:
    return {
        "prob": p.prob,
        "mean": list(p.mean),
        "cov": [list(row) for row in p.cov],
        "size_range": list(p.size_range),
    }


def shift_params_to_dict(sp: ShiftParams) -> dict:
    return {
        "appearance": _appearance_to_dict(sp.appearance),
        "layout": [_prior_to_dict(p) for p in sp.layout.priors],
    }


def shift_params_from_dict(d: dict) -> ShiftParams:
    return ShiftParams(
        appearance=AppearanceParams(**d["appearance"]),
        layout=LayoutParams(tuple(ClassPrior(**p) for p in d["layout"])),
    )


def save_dataset(ds: DomainDataset, dirpath) -> None:
    root = Path(dirpath)
    root.mkdir(parents=True, exist_ok=True)
    meta = {
        "format": DATASET_FORMAT,
        "h": ds.h,
        "w": ds.w,
        "classes": ds.classes,
        "seed": ds.seed,
        "source_params": shift_params_to_dict(ds.source_params),
        "target_params": shift_params_to_dict(ds.target_params),
    }
    sgt.save_checkpoint(root / DATASET_FILE, {k: ds.arrays[k] for k in ARRAY_NAMES}, meta)


def load_dataset(dirpath) -> DomainDataset:
    path = Path(dirpath) / DATASET_FILE
    if not path.exists():
        raise FileNotFoundError(f"no dataset at {path}")
    arrays, meta = sgt.load_checkpoint(path)
    if meta.get("format") != DATASET_FORMAT:
        raise sgt.FormatError(f"{path}: dataset format {meta.get('format')!r}, "
                              f"expected {DATASET_FORMAT!r}")
    if sorted(arrays) != sorted(ARRAY_NAMES):
        raise sgt.FormatError(f"{path}: arrays {sorted(arrays)}, expected {sorted(ARRAY_NAMES)}")
    try:
        h, w = int(meta["h"]), int(meta["w"])
        ds = DomainDataset(h, w, int(meta["classes"]), int(meta["seed"]),
                           shift_params_from_dict(meta["source_params"]),
                           shift_params_from_dict(meta["target_params"]), arrays)
    except (KeyError, TypeError, ValueError) as e:
        raise sgt.FormatError(f"{path}: bad dataset metadata: {e!r}") from None
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
    return ds
