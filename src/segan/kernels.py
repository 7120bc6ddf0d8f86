"""Convolution and resampling kernels.

These are the hot inner loops of the autodiff engine, written in numpy.
Each conv kernel is picked by the stride and shape alone. The forward and
each gradient have two paths, and space-to-depth comes first in all three:

- **Space-to-depth**, when the stride s > 1 divides both kernel sides and
  both padded input sides. A stride-s conv whose kernel is a multiple of s
  is a stride-1 conv over the s·s phases of its padded input (the
  regrouping of Shi et al., 2016, *Real-Time Single Image and Video
  Super-Resolution Using an Efficient Sub-Pixel CNN*): ``space_to_depth``
  turns the (n, Hp, Wp, c) map into n·Hq·Wq flat rows of s²·c channels,
  and the (kh, kw, c_in, c_out) kernel into (kh/s)·(kw/s) taps over them.
  Tap (ty, tx) is one GEMM on the contiguous row slice at offset
  ty·Wq + tx; rows that wrap past an image edge land outside the output
  and are dropped (forward) or meet zero gradient rows (backward). Every
  discriminator conv (k4 s2 p1 on even maps) takes this path: 4 GEMMs with
  K = 4·c_in instead of 16 strided copies and 16 GEMMs.
- **One GEMM per row block**, for every other forward conv: every 3×3
  conv of the segmenter and the generator, and the segmenter's 1×1 head.
  A read-only strided view of the padded input, already in the weight's
  (ky, kx, ci) order, is copied once into (rows, kh·kw·c_in) columns,
  which meet the (kh·kw·c_in, c_out) weight in one GEMM. The rows go in
  blocks of whole images or of output-row bands, so that one block's
  columns hold at most ``GEMM_BLOCK_BYTES`` (256 KiB, about a per-core L2)
  unless one output row alone is larger. The whole column matrix of a
  batch-8 generator conv would be 19 MB. With one BLAS thread on 2 vCPUs
  the forward of ``seg.conv0`` at batch 8 went from 1.35 to 0.51 ms,
  ``gen.conv1`` at batch 2 from 1.23–1.77 to 0.87–1.29 ms, and ``gen.out``
  from 0.61–1.01 to 0.45–0.85 ms, against a loop over the kernel taps.
  That tap loop was faster only on narrow 3×3 convs, such as 3 -> 8 at
  64×64, which no stock net runs. Its only stock forward user was the 1×1
  head (32 -> 4), at 4–8 ms of a 0.7–2.7 s ``perfbench`` round. A 1×1
  conv here is the same single GEMM over the same rows, so its bytes are
  the same.
- **Tap loop**, for every other backward conv: each kernel tap (ky, kx)
  contributes one small matmul between the output gradient and the strided
  input slice that tap touches.

The paths add the same products in another order. Float64 results agree
to ~1e-15 relative. Float32 forward outputs agree with a tap-loop
reference to ~4e-7 of their largest magnitude on the space-to-depth path
and to ~8e-7 on the GEMM path; the tests hold them to 1e-6 and 2e-6. The
backward kernels are mostly bit-identical. The wrapped rows of
space-to-depth are GEMM work too, a large share on small maps (an 8×8
input gives 25 phase cells per 16 outputs), so at batch 6 the 8×8 disc
layer runs no faster than the tap loop. At the default batch sizes (2 in
training, 1 in ``bounds``) every disc layer is faster.

Layout convention throughout: activations are ``(batch, h, w, channels)``,
weights are ``(kh, kw, c_in, c_out)``, both C-contiguous.
"""

from __future__ import annotations

import numpy as np

# The columns of one forward GEMM block hold at most this many bytes (or
# one output row, when a row alone is larger), so they stay L2-sized.
GEMM_BLOCK_BYTES = 256 * 1024


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    out = (size + 2 * pad - kernel) // stride + 1
    if out < 1:
        raise ValueError(
            f"convolution output collapses: size={size} kernel={kernel} "
            f"stride={stride} pad={pad}"
        )
    return out


def _pad_input(x: np.ndarray, pad: int) -> np.ndarray:
    if pad == 0:
        return np.ascontiguousarray(x)
    n, h, w, c = x.shape
    xp = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=x.dtype)
    xp[:, pad:-pad, pad:-pad, :] = x
    return xp


# ---------------------------------------------------------------------------
# backward tap loops


def _conv2d_bwd_input_np(g, w, gxp, stride):
    n, ho, wo, c_out = g.shape
    kh, kw, c_in, _ = w.shape
    gmat = g.reshape(-1, c_out)
    for ky in range(kh):
        for kx in range(kw):
            contrib = gmat @ w[ky, kx].T
            gxp[:, ky : ky + stride * ho : stride, kx : kx + stride * wo : stride, :] += (
                contrib.reshape(n, ho, wo, c_in)
            )


def _conv2d_bwd_weight_np(xp, g, gw, stride):
    n, ho, wo, c_out = g.shape
    kh, kw, c_in, _ = gw.shape
    gmat = g.reshape(-1, c_out)
    for ky in range(kh):
        for kx in range(kw):
            tap = xp[:, ky : ky + stride * ho : stride, kx : kx + stride * wo : stride, :]
            gw[ky, kx] += tap.reshape(-1, c_in).T @ gmat


# ---------------------------------------------------------------------------
# space-to-depth


def space_to_depth(a: np.ndarray, s: int) -> np.ndarray:
    """Regroup ``a`` (n, H, W, *rest) into its s·s phases: the C-contiguous
    (n, H/s, W/s, s, s, *rest) array whose [b, i, j, py, px] is
    ``a[b, s·i + py, s·j + px]``.

    A padded activation (n, Hp, Wp, c) becomes n·Hq·Wq rows of s²·c phase
    channels. A weight (kh, kw, c_in, c_out), taken as a batch of one,
    becomes the matching (kh/s, kw/s, s²·c_in, c_out) kernel over those
    channels. Swapping axes 2 and 3 back and merging them undoes it.
    """
    n, h, w = a.shape[:3]
    return np.ascontiguousarray(a.reshape(n, h // s, s, w // s, s, *a.shape[3:]).swapaxes(2, 3))


def _phase_taps(kernel_hw, wq, s):
    """(ty, tx, flat row offset ty·Wq + tx) of each tap of the phase kernel."""
    kh, kw = kernel_hw
    return [(ty, tx, ty * wq + tx) for ty in range(kh // s) for tx in range(kw // s)]


def _grad_rows(g, hq, wq):
    """Output gradient ``g`` (n, ho, wo, c) zero-filled to the (n, Hq, Wq)
    phase grid, as flat rows."""
    n, ho, wo, c = g.shape
    gq = np.zeros((n, hq, wq, c), dtype=g.dtype)
    gq[:, :ho, :wo] = g
    return gq.reshape(n * hq * wq, c)


def _conv2d_forward_s2d(xp, w, out_shape, stride):
    n, ho, wo, c_out = out_shape
    kh, kw = w.shape[:2]
    hq, wq = xp.shape[1] // stride, xp.shape[2] // stride
    xq = space_to_depth(xp, stride).reshape(n * hq * wq, -1)
    wph = space_to_depth(w[None], stride).reshape(kh // stride, kw // stride, -1, c_out)
    taps = _phase_taps((kh, kw), wq, stride)
    span = len(xq) - taps[-1][2]
    acc = np.zeros((len(xq), c_out), dtype=xp.dtype)
    for ty, tx, o in taps:
        acc[:span] += xq[o : o + span] @ wph[ty, tx]
    return np.ascontiguousarray(acc.reshape(n, hq, wq, c_out)[:, :ho, :wo])


def _conv2d_bwd_input_s2d(g, w, padded_hw, stride):
    n = g.shape[0]
    kh, kw, c_in, c_out = w.shape
    hp, wp = padded_hw
    hq, wq = hp // stride, wp // stride
    gmat = _grad_rows(g, hq, wq)
    wph = space_to_depth(w[None], stride).reshape(kh // stride, kw // stride, -1, c_out)
    taps = _phase_taps((kh, kw), wq, stride)
    span = len(gmat) - taps[-1][2]
    gxq = np.zeros((len(gmat), stride * stride * c_in), dtype=g.dtype)
    for ty, tx, o in taps:
        gxq[o : o + span] += gmat[:span] @ wph[ty, tx].T
    gxq = gxq.reshape(n, hq, wq, stride, stride, c_in).swapaxes(2, 3)
    return gxq.reshape(n, hp, wp, c_in)


def _conv2d_bwd_weight_s2d(xp, g, kernel_hw, stride):
    n, _, _, c_out = g.shape
    c_in = xp.shape[3]
    kh, kw = kernel_hw
    hq, wq = xp.shape[1] // stride, xp.shape[2] // stride
    xq = space_to_depth(xp, stride).reshape(n * hq * wq, -1)
    gmat = _grad_rows(g, hq, wq)
    taps = _phase_taps(kernel_hw, wq, stride)
    span = len(gmat) - taps[-1][2]
    # each tap's block is written in place: stacking the blocks and then
    # regrouping them needs two more weight-sized arrays, 256 KB each at
    # float64 8x8, 32 -> 64, which is past malloc's mmap threshold; a
    # batch-1 call took 0.31 ms that way, against 0.05 ms here and 0.13 ms
    # in the tap loop (one BLAS thread, 2 vCPUs)
    gw = np.empty((kh // stride, stride, kw // stride, stride, c_in, c_out), dtype=g.dtype)
    for ty, tx, o in taps:
        gw[ty, :, tx] = (xq[o : o + span].T @ gmat[:span]).reshape(stride, stride, c_in, c_out)
    return gw.reshape(kh, kw, c_in, c_out)


# ---------------------------------------------------------------------------
# one GEMM per row block


def _row_blocks(n, ho, rows):
    """(images, output rows) slices that cover an (n, ho) output grid in
    blocks of at most ``rows`` output rows: whole images when one fits,
    else bands of rows within one image."""
    if rows >= ho:
        step = rows // ho
        for b in range(0, n, step):
            yield slice(b, b + step), slice(None)
    else:
        for b in range(n):
            for y in range(0, ho, rows):
                yield slice(b, b + 1), slice(y, y + rows)


def _conv2d_forward_gemm(xp, w, out_shape, stride):
    n, ho, wo, c_out = out_shape
    kh, kw, c_in, _ = w.shape
    k = kh * kw * c_in
    # (n, ho, wo, kh, kw, c_in) windows, already in the weight's (ky, kx, ci) order
    sn, sh, sw, sc = xp.strides
    win = np.lib.stride_tricks.as_strided(
        xp, (n, ho, wo, kh, kw, c_in), (sn, stride * sh, stride * sw, sh, sw, sc),
        writeable=False)
    wmat = w.reshape(k, c_out)
    out = np.empty(out_shape, dtype=xp.dtype)
    rows = max(1, GEMM_BLOCK_BYTES // (wo * k * xp.itemsize))
    for images, band in _row_blocks(n, ho, rows):
        np.matmul(win[images, band].reshape(-1, k), wmat,
                  out=out[images, band].reshape(-1, c_out))
    return out


# ---------------------------------------------------------------------------
# public entry points


def _check_conv_args(x, w, stride, pad):
    if x.ndim != 4 or w.ndim != 4:
        raise ValueError(f"conv2d expects 4-d input and weight, got {x.ndim}-d/{w.ndim}-d")
    if x.shape[3] != w.shape[2]:
        raise ValueError(
            f"conv2d channel mismatch: input has {x.shape[3]}, weight expects {w.shape[2]}"
        )
    if stride < 1 or pad < 0:
        raise ValueError(f"invalid stride={stride} pad={pad}")


def _takes_s2d(kh: int, kw: int, hp: int, wp: int, stride: int) -> bool:
    """Whether a conv of kernel (kh, kw) over a padded (hp, wp) map runs by
    space-to-depth; every other conv runs one GEMM per row block forward
    and the tap loop backward."""
    return (stride > 1 and kh % stride == 0 and kw % stride == 0
            and hp % stride == 0 and wp % stride == 0)


def conv2d_forward(x: np.ndarray, w: np.ndarray, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Cross-correlation of ``x`` (n,h,w,ci) with ``w`` (kh,kw,ci,co)."""
    _check_conv_args(x, w, stride, pad)
    n, h, wd, _ = x.shape
    kh, kw, _, c_out = w.shape
    ho = conv_output_size(h, kh, stride, pad)
    wo = conv_output_size(wd, kw, stride, pad)
    xp = _pad_input(x, pad)
    if _takes_s2d(kh, kw, h + 2 * pad, wd + 2 * pad, stride):
        return _conv2d_forward_s2d(xp, w, (n, ho, wo, c_out), stride)
    return _conv2d_forward_gemm(xp, w, (n, ho, wo, c_out), stride)


def conv2d_bwd_input(
    g: np.ndarray, w: np.ndarray, input_hw: tuple[int, int], stride: int = 1, pad: int = 0
) -> np.ndarray:
    """Gradient of conv2d_forward w.r.t. its input, given output gradient ``g``."""
    h, wd = input_hw
    n = g.shape[0]
    kh, kw, c_in, _ = w.shape
    hp, wp = h + 2 * pad, wd + 2 * pad
    if _takes_s2d(kh, kw, hp, wp, stride):
        gxp = _conv2d_bwd_input_s2d(g, w, (hp, wp), stride)
    else:
        gxp = np.zeros((n, hp, wp, c_in), dtype=g.dtype)
        _conv2d_bwd_input_np(g, w, gxp, stride)
    if pad == 0:
        return gxp
    return gxp[:, pad:-pad, pad:-pad, :].copy()


def conv2d_bwd_weight(
    x: np.ndarray, g: np.ndarray, kernel_hw: tuple[int, int], stride: int = 1, pad: int = 0
) -> np.ndarray:
    """Gradient of conv2d_forward w.r.t. its weight, given output gradient ``g``."""
    kh, kw = kernel_hw
    c_in = x.shape[3]
    c_out = g.shape[3]
    xp = _pad_input(x, pad)
    if _takes_s2d(kh, kw, xp.shape[1], xp.shape[2], stride):
        return _conv2d_bwd_weight_s2d(xp, g, kernel_hw, stride)
    gw = np.zeros((kh, kw, c_in, c_out), dtype=g.dtype)
    _conv2d_bwd_weight_np(xp, g, gw, stride)
    return gw


def upsample_nearest(x: np.ndarray, factor: int) -> np.ndarray:
    """Repeat each spatial cell of (n,h,w,c) ``factor`` times along h and w."""
    if factor < 1:
        raise ValueError(f"upsample factor must be >= 1, got {factor}")
    n, h, w, c = x.shape
    wide = np.broadcast_to(x[:, :, None, :, None, :], (n, h, factor, w, factor, c))
    return wide.reshape(n, h * factor, w * factor, c)


def upsample_nearest_bwd(g: np.ndarray, factor: int) -> np.ndarray:
    """Gradient of :func:`upsample_nearest`: each input cell sums the
    factor² output cells it was copied to.

    The ``[0, 0]`` phase is copied and the other phases are added to it in
    row-major order, one whole-map slice at a time. For c >= 2 channels
    that is the order of ``.sum(axis=(2, 4))`` over the (n, h, f, w, f, c)
    view, so the bytes are the same. At c = 1 numpy sums the then
    contiguous phase axis pairwise, so the last bit can differ; the program
    upsamples class maps only, and a segmenter has at least two classes."""
    n, ho, wo, c = g.shape
    phases = g.reshape(n, ho // factor, factor, wo // factor, factor, c)
    out = phases[:, :, 0, :, 0].copy()
    for py in range(factor):
        for px in range(factor):
            if py or px:
                out += phases[:, :, py, :, px]
    return out

