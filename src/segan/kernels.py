"""Convolution and resampling kernels.

These are the hot inner loops of the autodiff engine, written in numpy as
tap loops: each kernel tap (ky, kx) contributes one small matmul between
the strided input slice it touches and that tap's weight matrix.

Layout convention throughout: activations are ``(batch, h, w, channels)``,
weights are ``(kh, kw, c_in, c_out)``, both C-contiguous.
"""

from __future__ import annotations

import numpy as np


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
# tap loops


def _conv2d_forward_np(xp, w, out_shape, stride):
    n, ho, wo, c_out = out_shape
    kh, kw, c_in, _ = w.shape
    acc = np.zeros((n * ho * wo, c_out), dtype=xp.dtype)
    for ky in range(kh):
        for kx in range(kw):
            tap = xp[:, ky : ky + stride * ho : stride, kx : kx + stride * wo : stride, :]
            acc += tap.reshape(-1, c_in) @ w[ky, kx]
    return acc.reshape(out_shape)


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


def conv2d_forward(x: np.ndarray, w: np.ndarray, stride: int = 1, pad: int = 0) -> np.ndarray:
    """Cross-correlation of ``x`` (n,h,w,ci) with ``w`` (kh,kw,ci,co)."""
    _check_conv_args(x, w, stride, pad)
    n, h, wd, _ = x.shape
    kh, kw, _, c_out = w.shape
    ho = conv_output_size(h, kh, stride, pad)
    wo = conv_output_size(wd, kw, stride, pad)
    xp = _pad_input(x, pad)
    return _conv2d_forward_np(xp, w, (n, ho, wo, c_out), stride)


def conv2d_bwd_input(
    g: np.ndarray, w: np.ndarray, input_hw: tuple[int, int], stride: int = 1, pad: int = 0
) -> np.ndarray:
    """Gradient of conv2d_forward w.r.t. its input, given output gradient ``g``."""
    h, wd = input_hw
    n = g.shape[0]
    kh, kw, c_in, _ = w.shape
    gxp = np.zeros((n, h + 2 * pad, wd + 2 * pad, c_in), dtype=g.dtype)
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
    n, ho, wo, c = g.shape
    h, w = ho // factor, wo // factor
    return g.reshape(n, h, factor, w, factor, c).sum(axis=(2, 4))

