"""Output checks written apart from the program.

Each check takes the program's outputs as plain values and returns a list
of failure messages (empty when the check holds), so a test can perturb an
input and see the check fail. Nothing here calls into ``segan``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.signal import correlate2d

# Float32 kernels sum taps in another order than the float64 reference.
RTOL = {"float32": 2e-5, "float64": 1e-11}


def conv_out_hw(h: int, w: int, kh: int, kw: int, stride: int, pad: int) -> tuple[int, int]:
    return (h + 2 * pad - kh) // stride + 1, (w + 2 * pad - kw) // stride + 1


def conv_reference(x: np.ndarray, w: np.ndarray, stride: int, pad: int) -> np.ndarray:
    """Cross-correlation of (n,h,w,ci) with (kh,kw,ci,co), in float64, as a
    sum of ``scipy.signal.correlate2d`` planes, then strided."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    n, h, wd, ci = x.shape
    kh, kw, _, co = w.shape
    ho, wo = conv_out_hw(h, wd, kh, kw, stride, pad)
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    out = np.zeros((n, ho, wo, co))
    for b in range(n):
        for o in range(co):
            for i in range(ci):
                full = correlate2d(xp[b, :, :, i], w[:, :, i, o], mode="valid")
                out[b, :, :, o] += full[::stride, ::stride]
    return out


def _close(name: str, got: np.ndarray, want: np.ndarray, rtol: float) -> list[str]:
    got = np.asarray(got, dtype=np.float64)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != {want.shape}"]
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    err = float(np.abs(got - want).max(initial=0.0))
    if not err <= rtol * scale:
        return [f"{name}: max error {err:.3g} above {rtol * scale:.3g}"]
    return []


def check_conv_forward(x, w, stride, pad, out, dtype: str) -> list[str]:
    return _close("conv2d_forward", out, conv_reference(x, w, stride, pad), RTOL[dtype])


def check_adjoint(x, w, g, stride, pad, gx, gw, dtype: str) -> list[str]:
    """<A x, g> = <x, A^T g> for the input gradient ``gx`` and
    <A_x w, g> = <w, gw> for the weight gradient ``gw``."""
    ax = conv_reference(x, w, stride, pad)
    g64 = np.asarray(g, dtype=np.float64)
    lhs = float(np.vdot(ax, g64))
    scale = float(np.linalg.norm(ax) * np.linalg.norm(g64)) or 1.0
    tol = 10 * RTOL[dtype] * scale
    fails = []
    if gx is not None:
        rhs = float(np.vdot(np.asarray(x, np.float64), np.asarray(gx, np.float64)))
        if not abs(lhs - rhs) <= tol:
            fails.append(f"conv2d_bwd_input adjoint: {lhs!r} vs {rhs!r}")
    if gw is not None:
        rhs = float(np.vdot(np.asarray(w, np.float64), np.asarray(gw, np.float64)))
        if not abs(lhs - rhs) <= tol:
            fails.append(f"conv2d_bwd_weight adjoint: {lhs!r} vs {rhs!r}")
    return fails


# ---------------------------------------------------------------------------
# segmentation quality


def iou_per_class(pred: np.ndarray, labels: np.ndarray, classes: int) -> list[float]:
    """Intersection over union per class; nan where a class is in neither map."""
    pred = np.asarray(pred).ravel()
    labels = np.asarray(labels).ravel()
    out = []
    for c in range(classes):
        p, t = pred == c, labels == c
        union = int(np.count_nonzero(p | t))
        out.append(np.count_nonzero(p & t) / union if union else math.nan)
    return out


def check_miou(pred, labels, classes: int, report: dict) -> list[str]:
    """The report's per-class IoU and mIoU against a recount."""
    if np.shape(pred) != np.shape(labels):
        return [f"predictions {np.shape(pred)} and labels {np.shape(labels)} differ in shape"]
    iou = iou_per_class(pred, labels, classes)
    present = [v for v in iou if not math.isnan(v)]
    miou = sum(present) / len(present)
    fails = []
    if not abs(miou - report["miou"]) <= 1e-12:
        fails.append(f"mIoU {report['miou']!r} != recomputed {miou!r}")
    for c, (mine, theirs) in enumerate(zip(iou, report["iou"])):
        if theirs is None:
            if not math.isnan(mine):
                fails.append(f"class {c}: reported no IoU, recomputed {mine!r}")
        elif not abs(mine - theirs) <= 1e-12:
            fails.append(f"class {c}: IoU {theirs!r} != recomputed {mine!r}")
    return fails


# ---------------------------------------------------------------------------
# the bound chain


def statement_gen_bound(spec: dict) -> float:
    """Generalization bound from a measured spec, statement form:

    log N = ln(2 W^2) ||X||^2 / eps^2 (prod rho_i s_i)^2 (sum (b_i/s_i)^(2/3))^3
    R = eps sqrt(log N)
    bound = 24 R/n (1 + ln(n / 3R)) + 2 Delta sqrt(2 ln(1/delta) / n) + phi
    """
    gain = 1.0
    for rho, s in zip(spec["rho"], spec["s"]):
        gain *= rho * s
    mix = sum((b / s) ** (2.0 / 3.0) for b, s in zip(spec["b"], spec["s"])) ** 3
    eps, n = spec["epsilon"], spec["n"]
    log_cover = math.log(2 * spec["width"] ** 2) * spec["x_norm"] ** 2 / eps**2 * gain**2 * mix
    r = eps * math.sqrt(log_cover)
    complexity = 0.0 if r == 0 else 24.0 * r / n * (1.0 + math.log(n / (3.0 * r)))
    concentration = 2.0 * spec["out_bound"] * math.sqrt(2.0 * math.log(1.0 / spec["delta"]) / n)
    return complexity + concentration + spec["phi"]


def check_gen_bound(bounds: dict) -> list[str]:
    mine = statement_gen_bound(bounds["spec"])
    theirs = bounds["statement"]["gen_bound"]
    if not abs(mine - theirs) <= 1e-9 * max(1.0, abs(mine)):
        return [f"gen_bound {theirs!r} != recomputed {mine!r}"]
    return []


# ---------------------------------------------------------------------------
# spectral norms of the discriminator's conv layers


def dense_conv_matrix(w: np.ndarray, in_hw: tuple[int, int], stride: int, pad: int) -> np.ndarray:
    """The conv layer as an (out_dim, in_dim) matrix over row-major
    (h, w, c) vectors of one image."""
    kh, kw, ci, co = w.shape
    h, wd = in_hw
    ho, wo = conv_out_hw(h, wd, kh, kw, stride, pad)
    a = np.zeros((ho * wo * co, h * wd * ci))
    oy, ox = np.meshgrid(np.arange(ho), np.arange(wo), indexing="ij")
    for ky in range(kh):
        for kx in range(kw):
            iy = oy * stride + ky - pad
            ix = ox * stride + kx - pad
            ok = (iy >= 0) & (iy < h) & (ix >= 0) & (ix < wd)
            rows = (oy * wo + ox)[ok][:, None] * co + np.arange(co)
            cols = (iy * wd + ix)[ok][:, None] * ci + np.arange(ci)
            a[rows[:, :, None], cols[:, None, :]] = np.asarray(w[ky, kx], np.float64).T
    return a


def tap_norm_sum(w: np.ndarray) -> float:
    """Sum of the spectral norms of the per-tap (ci, co) matrices: an upper
    bound on the layer's norm, since each tap moves each input cell to at
    most one output cell."""
    kh, kw = w.shape[:2]
    return float(sum(np.linalg.norm(np.asarray(w[ky, kx], np.float64), 2)
                     for ky in range(kh) for kx in range(kw)))


def sampled_ratio(w, in_hw, stride, pad, rng: np.random.Generator, samples: int = 4) -> float:
    """max ||A v|| / ||v|| over random v: a lower bound on the layer's norm."""
    best = 0.0
    for _ in range(samples):
        v = rng.standard_normal((1, in_hw[0], in_hw[1], w.shape[2]))
        best = max(best, float(np.linalg.norm(conv_reference(v, w, stride, pad)) / np.linalg.norm(v)))
    return best


def layer_geometry(weights: list[np.ndarray], in_hw: tuple[int, int], stride: int, pad: int):
    """Input size of each layer of a conv stack."""
    sizes = []
    h, w = in_hw
    for wt in weights:
        sizes.append((h, w))
        h, w = conv_out_hw(h, w, wt.shape[0], wt.shape[1], stride, pad)
    return sizes


DENSE_LIMIT = 2**24  # entries; conv0/conv1 of the stock discriminator exceed it
# Power iteration approaches the largest singular value from below. After
# the program's 200 iterations it stayed up to 0.47% short on discriminators
# whose top singular values nearly coincide (initial weights, 32x32 inputs);
# a wrong operator (stride, padding, feature-map size) is off by more.
POWER_SHORTFALL = 0.02


def norm_brackets(weights, in_hw, stride, pad, seed: int = 0) -> list[tuple]:
    """Per layer: (sampled ||Av||/||v||, sum of per-tap norms, exact norm or
    None). The exact norm is the square root of the largest eigenvalue of
    A A^T for the dense operator A, wherever A fits in memory."""
    rng = np.random.default_rng(seed)
    out = []
    for w, hw in zip(weights, layer_geometry(weights, in_hw, stride, pad)):
        exact = None
        ho, wo = conv_out_hw(hw[0], hw[1], w.shape[0], w.shape[1], stride, pad)
        if ho * wo * w.shape[3] * hw[0] * hw[1] * w.shape[2] <= DENSE_LIMIT:
            a = dense_conv_matrix(w, hw, stride, pad)
            v = rng.standard_normal((1, hw[0], hw[1], w.shape[2]))
            if _close("dense operator", a @ v.ravel(), conv_reference(v, w, stride, pad).ravel(), 1e-12):
                raise AssertionError("dense operator disagrees with the reference conv")
            exact = math.sqrt(float(np.linalg.eigvalsh(a @ a.T)[-1]))
        out.append((sampled_ratio(w, hw, stride, pad, rng), tap_norm_sum(w), exact))
    return out


def check_spectral_norms(brackets, reported) -> list[str]:
    """Each reported norm within its layer's bracket, and at most
    POWER_SHORTFALL below the exact norm where that is known."""
    fails = []
    for i, ((lo, hi, exact), s) in enumerate(zip(brackets, reported)):
        if not lo <= s * (1 + 1e-9):
            fails.append(f"layer {i}: norm {s!r} below sampled ratio {lo!r}")
        if not s <= hi * (1 + 1e-9):
            fails.append(f"layer {i}: norm {s!r} above per-tap sum {hi!r}")
        if exact is not None and not exact * (1 - POWER_SHORTFALL) <= s <= exact * (1 + 1e-9):
            fails.append(f"layer {i}: norm {s!r} not within [1 - {POWER_SHORTFALL}, 1] "
                         f"of the largest singular value {exact!r}")
    return fails


# ---------------------------------------------------------------------------
# datasets and styled images


def check_arrays_equal(name: str, got: np.ndarray, want: np.ndarray) -> list[str]:
    """Same dtype, shape and bytes."""
    got, want = np.asarray(got), np.asarray(want)
    if got.dtype != want.dtype or got.shape != want.shape:
        return [f"{name}: {got.dtype}{got.shape} != {want.dtype}{want.shape}"]
    if got.tobytes() != want.tobytes():
        return [f"{name}: contents differ"]
    return []


def histogram_gap(images_a: np.ndarray, images_b: np.ndarray, bins: int = 16) -> float:
    """L2 distance between the per-channel colour histograms (16 bins over
    [0, 1], each normalised to sum 1) of two image stacks."""

    def hist(images):
        images = np.asarray(images)
        parts = []
        for c in range(images.shape[-1]):
            v = images[..., c].astype(np.float64).ravel()
            v = v[(v >= 0.0) & (v <= 1.0)]
            idx = np.minimum(np.floor(v * bins).astype(np.int64), bins - 1)
            counts = np.bincount(idx, minlength=bins)
            parts.append(counts / max(counts.sum(), 1))
        return np.concatenate(parts)

    d = hist(images_a) - hist(images_b)
    return math.sqrt(float(np.dot(d, d)))


def check_styled(styled, source, labels_before, labels_after) -> list[str]:
    """Styling keeps the image shape, stays in [0, 1] and leaves the
    paired source labels bitwise unchanged."""
    fails = []
    if np.shape(styled) != np.shape(source):
        fails.append(f"styled shape {np.shape(styled)} != source shape {np.shape(source)}")
    if not (np.min(styled) >= 0.0 and np.max(styled) <= 1.0):
        fails.append(f"styled values span [{np.min(styled)}, {np.max(styled)}], outside [0, 1]")
    fails += check_arrays_equal("source labels", labels_after, labels_before)
    return fails


def check_gap(name: str, reported: float, images, target) -> list[str]:
    mine = histogram_gap(images, target)
    if not abs(mine - reported) <= 1e-9:
        return [f"{name} appearance gap {reported!r} != recomputed {mine!r}"]
    return []


def check_loss_progress(rows: list[dict], classes: int) -> list[str]:
    """Every logged ``loss_seg`` finite, and the last one below ln(classes),
    the cross entropy of a uniform prediction the untrained net starts near.

    Each row holds one batch's loss, and in ``full`` mode the last rows hold
    the self-training loss, so "last row below first" does not hold on
    every seed."""
    if not rows:
        return ["train log has no rows"]
    losses = [float(r["loss_seg"]) for r in rows]
    if not all(math.isfinite(v) for v in losses):
        return [f"non-finite loss_seg in the train log: {losses}"]
    if not losses[-1] < math.log(classes):
        return [f"last loss_seg {losses[-1]!r} (iter {rows[-1]['iter']}) not below "
                f"ln({classes}) = {math.log(classes):.4f}"]
    return []
