"""Convolution and resampling kernels.

These are the hot inner loops of the autodiff engine, written in numpy.
Every convolution, forward and backward, runs one kernel: a GEMM over a
read-only strided window view.

- **Windows.** For a stride-s conv with a (kh, kw) kernel over a map
  ``a`` (n, H, W, c), one ``as_strided`` view (n, ho, wo, kh, kw, c) holds
  the window each output cell reads, already in the weight's (ky, kx, ci)
  order. The output cells go in blocks of whole images or of output-row
  bands; each block's windows are copied once into (cells, kh·kw·c)
  columns, which hold at most ``GEMM_BLOCK_BYTES`` (256 KiB, about a
  per-core L2) unless one output row alone is larger. The whole column
  matrix of a batch-8 generator conv would be 19 MB.
- **Forward**: the columns of the zero-padded input times the
  (kh·kw·c_in, c_out) weight, one GEMM per block.
- **Weight gradient**: the columns of the padded input, transposed, times
  the output gradient's rows, summed over the blocks.
- **Input gradient**: the transpose of the forward, by the adjoint identity
  <g, conv(x)> = <conv^T(g), x>. It is the forward GEMM run over the output
  gradient zero-bordered by k − 1 cells, with the kernel flipped and its
  channel axes swapped (Dumoulin & Visin, 2016, *A guide to convolution
  arithmetic for deep learning*). At stride s > 1 the kernel, zero-extended
  to k' = s·⌈k/s⌉ taps a side, is regrouped space-to-depth into a
  (k'/s, k'/s) kernel over s²·c_in phase channels (Shi et al., 2016,
  *Real-Time Single Image and Video Super-Resolution Using an Efficient
  Sub-Pixel CNN*); the border is then k'/s − 1 cells of the output grid,
  on which the GEMM runs. The flipped, regrouped kernel matrix is one
  strided copy of the weight, and the zero extension is made only when s
  does not divide k. The s² phase channels go back to
  their input cells, and the pad is cropped. Only the grid cells that hold
  input cells are computed, so at stride 1, where the phases are the
  kernel itself, the GEMM writes the cropped input gradient directly. Input
  rows that no output reads get zeros, and a pad wider than the kernel
  only moves the border.

This replaced three kernel families: space-to-depth GEMMs for every conv
whose stride divides its kernel and padded map (every discriminator conv),
row-block GEMMs for every other forward conv, and a loop over kernel taps
for every other gradient. Per call (float32, batch 2, default BLAS threads
on 2 vCPUs, best of 9, both kernels timed in one process, ranges over two
runs), the input gradient of ``gen.conv1`` went from 1.29–1.47 to
0.98–1.08 ms, of ``gen.out`` from 1.21 to 0.32 ms and of ``seg.conv0``
from 0.38–0.42 to 0.30–0.31 ms. The weight gradient of ``seg.conv0`` went
from 0.20–0.32 to 0.09 ms, but of ``gen.conv1`` from 1.12–1.15 to
1.21–1.29 ms and of ``gen.out`` from 0.45–0.48 to 0.53–0.59 ms. Each of
the discriminator's layers moved by −0.04 to +0.04 ms per call. Larger
weight-gradient blocks did not close that gap (ROADMAP, "Measured and
parked").

The GEMMs add the products in another order than a tap loop. Float64
results agree with a float64 oracle to ~3e-15 relative; the tests hold all
three entry points to 1e-12 in float64 and 2e-6 in float32, relative to
the oracle's largest magnitude.

Layout convention throughout: activations are ``(batch, h, w, channels)``,
weights are ``(kh, kw, c_in, c_out)``, both C-contiguous.
"""

from __future__ import annotations

import numpy as np

# The window copy of one GEMM block holds at most this many bytes (or one
# output row, when a row alone is larger), so it stays L2-sized.
GEMM_BLOCK_BYTES = 256 * 1024


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    out = (size + 2 * pad - kernel) // stride + 1
    if out < 1:
        raise ValueError(
            f"convolution output collapses: size={size} kernel={kernel} "
            f"stride={stride} pad={pad}"
        )
    return out


def _embed(a: np.ndarray, hw: tuple[int, int], top: int, left: int) -> np.ndarray:
    """``a`` (n, h, w, c) with its [0, 0] cell at (top, left) of a zero
    (n, *hw, c) map; rows and columns that fall outside the map are cut."""
    n, h, w, c = a.shape
    if (top, left, h, w) == (0, 0, *hw):
        return np.ascontiguousarray(a)
    out = np.zeros((n, *hw, c), dtype=a.dtype)
    y0, y1 = max(top, 0), min(top + h, hw[0])
    x0, x1 = max(left, 0), min(left + w, hw[1])
    out[:, y0:y1, x0:x1] = a[:, y0 - top : y1 - top, x0 - left : x1 - left]
    return out


def _window_blocks(a, kernel_hw, out_hw, stride):
    """Yield ``(images, rows, columns)`` over the (n, *out_hw) output grid
    of a stride-``stride`` conv over ``a`` (n, H, W, c): blocks of whole
    images, or of output-row bands within one image, with the copy of the
    (cells, kh·kw·c) windows they read, in the weight's (ky, kx, ci) order.
    One copy holds at most ``GEMM_BLOCK_BYTES`` unless one output row alone
    is larger."""
    n, c = a.shape[0], a.shape[3]
    ho, wo = out_hw
    k = kernel_hw[0] * kernel_hw[1] * c
    sn, sh, sw, sc = a.strides
    win = np.lib.stride_tricks.as_strided(
        a, (n, ho, wo, *kernel_hw, c), (sn, stride * sh, stride * sw, sh, sw, sc),
        writeable=False)
    rows = max(1, GEMM_BLOCK_BYTES // (wo * k * a.itemsize))
    if rows >= ho:
        blocks = [(slice(b, b + rows // ho), slice(None)) for b in range(0, n, rows // ho)]
    else:
        blocks = [(slice(b, b + 1), slice(y, y + rows)) for b in range(n) for y in range(0, ho, rows)]
    for images, band in blocks:
        yield images, band, win[images, band].reshape(-1, k)


def _gemm(a, wmat, kernel_hw, stride, out_shape):
    """The conv of ``a`` with the (kh·kw·c, c_out) kernel matrix ``wmat``,
    one GEMM per window block."""
    out = np.empty(out_shape, dtype=a.dtype)
    for images, band, cols in _window_blocks(a, kernel_hw, out_shape[1:3], stride):
        np.matmul(cols, wmat, out=out[images, band].reshape(-1, out_shape[3]))
    return out


def _check_conv_args(x, w, stride, pad):
    if x.ndim != 4 or w.ndim != 4:
        raise ValueError(f"conv2d expects 4-d input and weight, got {x.ndim}-d/{w.ndim}-d")
    if x.shape[3] != w.shape[2]:
        raise ValueError(
            f"conv2d channel mismatch: input has {x.shape[3]}, weight expects {w.shape[2]}"
        )
    if stride < 1 or pad < 0:
        raise ValueError(f"invalid stride={stride} pad={pad}")


def conv2d_forward(x: np.ndarray, w: np.ndarray, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Cross-correlation of ``x`` (n,h,w,ci) with ``w`` (kh,kw,ci,co)."""
    _check_conv_args(x, w, stride, pad)
    n, h, wd, _ = x.shape
    kh, kw, _, c_out = w.shape
    ho = conv_output_size(h, kh, stride, pad)
    wo = conv_output_size(wd, kw, stride, pad)
    xp = _embed(x, (h + 2 * pad, wd + 2 * pad), pad, pad)
    return _gemm(xp, w.reshape(-1, c_out), (kh, kw), stride, (n, ho, wo, c_out))


def _phase_matrix(w: np.ndarray, s: int) -> np.ndarray:
    """The input gradient's kernel matrix of a (kh, kw, c_in, c_out) weight
    at stride ``s``, with th, tw = ⌈kh/s⌉, ⌈kw/s⌉: (th·tw·c_out) rows by
    (s·s·c_in) columns, whose row (ty, tx, co) and column (py, px, ci) hold
    the weight's tap (s·(th − 1 − ty) + py, s·(tw − 1 − tx) + px) from ci
    to co, or zero past the kernel. It is one strided copy of the weight,
    zero-extended to (s·th, s·tw) taps first only when s does not divide
    the kernel."""
    kh, kw, c_in, c_out = w.shape
    th, tw = -(-kh // s), -(-kw // s)
    if (kh, kw) != (s * th, s * tw):
        wz = np.zeros((s * th, s * tw, c_in, c_out), dtype=w.dtype)
        wz[:kh, :kw] = w
        w = wz
    taps = w.reshape(th, s, tw, s, c_in, c_out)[::-1, :, ::-1].transpose(0, 2, 5, 1, 3, 4)
    return np.ascontiguousarray(taps).reshape(th * tw * c_out, s * s * c_in)


def conv2d_bwd_input(
    g: np.ndarray, w: np.ndarray, input_hw: tuple[int, int], stride: int = 1, pad: int = 0
) -> np.ndarray:
    """Gradient of conv2d_forward w.r.t. its input, given output gradient ``g``."""
    h, wd = input_hw
    n = g.shape[0]
    kh, kw, c_in, c_out = w.shape
    s = stride
    th, tw = -(-kh // s), -(-kw // s)
    wmat = _phase_matrix(w, s)
    # phase cells q0 .. q0 + hq - 1 hold the input rows pad .. pad + h - 1;
    # cell q reads output rows q - th + 1 .. q
    q0 = pad // s
    hq, wq = -(-(pad + h) // s) - q0, -(-(pad + wd) // s) - q0
    gz = _embed(g, (hq + th - 1, wq + tw - 1), th - 1 - q0, tw - 1 - q0)
    gxq = _gemm(gz, wmat, (th, tw), 1, (n, hq, wq, s * s * c_in))
    if s == 1:
        return gxq
    gxp = gxq.reshape(n, hq, wq, s, s, c_in).swapaxes(2, 3).reshape(n, hq * s, wq * s, c_in)
    r = pad - q0 * s
    return np.ascontiguousarray(gxp[:, r : r + h, r : r + wd])


def conv2d_bwd_weight(
    x: np.ndarray, g: np.ndarray, kernel_hw: tuple[int, int], stride: int = 1, pad: int = 0
) -> np.ndarray:
    """Gradient of conv2d_forward w.r.t. its weight, given output gradient ``g``."""
    _, h, wd, c_in = x.shape
    c_out = g.shape[3]
    xp = _embed(x, (h + 2 * pad, wd + 2 * pad), pad, pad)
    gw = np.zeros((kernel_hw[0] * kernel_hw[1] * c_in, c_out), dtype=g.dtype)
    for images, band, cols in _window_blocks(xp, kernel_hw, g.shape[1:3], stride):
        gw += np.matmul(cols.T, g[images, band].reshape(-1, c_out))
    return gw.reshape(*kernel_hw, c_in, c_out)


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

