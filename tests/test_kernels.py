"""Convolution and resampling kernels against independent oracles.

Every convolution runs one windowed GEMM, forward and backward. On every
stock conv shape, all three entry points are held to float64 oracles built
on scipy.signal: the correlation of the padded input (forward), the full
convolution of the zero-dilated output gradient (input gradient) and the
correlation of the padded input with that gradient (weight gradient), within
the named tolerances below. Backward passes are also held to the adjoint
identity <g, conv(x)> == <conv^T(g), x>, which holds exactly for linear
maps, and to finite differences, on geometries that stress the input
gradient's phase form. The forward is held to the tap loop of
``references.conv_forward_taps``, byte for byte on the stock 1x1 head, and
the stride-2 input gradient to ``references.conv_bwd_input_taps`` on the
discriminator's layers. The input gradient's kernel matrix is held to its
step-by-step space-to-depth build, byte for byte. The upsampling gradient
is held to its one-reduction form, byte for byte.
"""

import functools

import numpy as np
import pytest
from scipy.signal import convolve2d, correlate2d

from segan import kernels

from references import (
    conv_bwd_input_taps,
    conv_forward_taps,
    phase_matrix_by_space_to_depth,
    space_to_depth,
    upsample_bwd_by_reduce,
)


def _oracle_conv(x, w, stride, pad):
    n, _, _, c_in = x.shape
    kh, kw, _, c_out = w.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    rows = []
    for b in range(n):
        planes = []
        for co in range(c_out):
            acc = None
            for ci in range(c_in):
                full = correlate2d(xp[b, :, :, ci], w[:, :, ci, co], mode="valid")
                acc = full if acc is None else acc + full
            planes.append(acc[::stride, ::stride])
        rows.append(np.stack(planes, axis=-1))
    return np.stack(rows, axis=0)


def _dilate(g, stride):
    """``g`` with stride - 1 zero rows and columns between its cells."""
    n, ho, wo, c = g.shape
    gd = np.zeros((n, (ho - 1) * stride + 1, (wo - 1) * stride + 1, c))
    gd[:, ::stride, ::stride] = g
    return gd


def _oracle_bwd_input(g, w, input_hw, stride, pad):
    """Float64 input gradient: per image and channel pair, the full
    convolution of the zero-dilated output gradient with the kernel plane,
    cropped to the input."""
    h, wd = input_hw
    _, _, c_in, c_out = w.shape
    gd = _dilate(g.astype(np.float64), stride)
    w = w.astype(np.float64)
    gxp = np.zeros((g.shape[0], h + 2 * pad, wd + 2 * pad, c_in))
    for b in range(g.shape[0]):
        for ci in range(c_in):
            for co in range(c_out):
                full = convolve2d(gd[b, :, :, co], w[:, :, ci, co], mode="full")
                gxp[b, : full.shape[0], : full.shape[1], ci] += full
    return gxp[:, pad : pad + h, pad : pad + wd]


def _oracle_bwd_weight(x, g, kernel_hw, stride, pad):
    """Float64 weight gradient: per image and channel pair, the correlation
    of the padded input with the zero-dilated output gradient."""
    kh, kw = kernel_hw
    xp = np.pad(x.astype(np.float64), ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    gd = _dilate(g.astype(np.float64), stride)
    gw = np.zeros((kh, kw, x.shape[3], g.shape[3]))
    for b in range(x.shape[0]):
        for ci in range(x.shape[3]):
            for co in range(g.shape[3]):
                gw[:, :, ci, co] += correlate2d(xp[b, :, :, ci], gd[b, :, :, co],
                                                mode="valid")[:kh, :kw]
    return gw


def _oracles(x, w, g, stride, pad):
    return (
        _oracle_conv(x.astype(np.float64), w.astype(np.float64), stride, pad),
        _oracle_bwd_input(g, w, x.shape[1:3], stride, pad),
        _oracle_bwd_weight(x, g, w.shape[:2], stride, pad),
    )


def _rand(shape, seed, dtype=np.float64):
    return np.random.default_rng(seed).standard_normal(shape).astype(dtype)


def test_output_size_examples():
    assert kernels.conv_output_size(64, 3, 1, 1) == 64
    assert kernels.conv_output_size(64, 3, 2, 1) == 32
    assert kernels.conv_output_size(64, 4, 2, 1) == 32
    assert kernels.conv_output_size(5, 3, 1, 0) == 3


def test_output_size_collapse_rejected():
    with pytest.raises(ValueError):
        kernels.conv_output_size(2, 3, 1, 0)


def test_forward_all_ones_fills_with_kernel_sum():
    x = np.ones((1, 3, 3, 1))
    w = np.ones((2, 2, 1, 1))
    out = kernels.conv2d_forward(x, w, stride=1, pad=0)
    assert out.shape == (1, 2, 2, 1)
    assert np.array_equal(out[0, :, :, 0], np.full((2, 2), 4.0))


@pytest.mark.parametrize(
    "shape,kernel,stride,pad",
    [
        ((2, 8, 8, 3), (3, 3, 3, 4), 1, 1),
        ((1, 9, 7, 2), (3, 3, 2, 5), 2, 1),
        ((3, 10, 10, 1), (4, 4, 1, 2), 2, 1),
        ((1, 5, 5, 4), (1, 1, 4, 3), 1, 0),
        ((2, 6, 6, 2), (5, 5, 2, 2), 1, 2),
    ],
)
def test_forward_matches_scipy(shape, kernel, stride, pad):
    x = _rand(shape, seed=hash((shape, kernel)) % 2**31)
    w = _rand(kernel, seed=7)
    got = kernels.conv2d_forward(x, w, stride=stride, pad=pad)
    want = _oracle_conv(x, w, stride, pad)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize(
    "shape,kernel,stride,pad",
    [
        ((2, 8, 8, 3), (3, 3, 3, 4), 1, 1),
        ((1, 9, 7, 2), (3, 3, 2, 5), 2, 1),
        ((3, 10, 10, 1), (4, 4, 1, 2), 2, 1),
        ((2, 6, 6, 2), (5, 5, 2, 2), 1, 2),
        ((2, 7, 6, 2), (2, 2, 2, 3), 1, 3),   # pad 3 > kernel 2: border rows read only zeros
        ((1, 5, 8, 3), (1, 1, 3, 2), 1, 1),   # 1x1 with pad 1
        ((2, 8, 8, 3), (4, 4, 3, 4), 1, 1),   # an even kernel at stride 1
    ],
)
def test_backward_adjoint_identities(shape, kernel, stride, pad):
    x = _rand(shape, seed=1)
    w = _rand(kernel, seed=2)
    out = kernels.conv2d_forward(x, w, stride=stride, pad=pad)
    g = _rand(out.shape, seed=3)

    gx = kernels.conv2d_bwd_input(g, w, shape[1:3], stride=stride, pad=pad)
    gw = kernels.conv2d_bwd_weight(x, g, kernel[:2], stride=stride, pad=pad)
    assert gx.shape == x.shape
    assert gw.shape == w.shape

    lhs = float(np.sum(g * out))
    # adjoint in x: <g, K_w x> == <K_w^T g, x>
    np.testing.assert_allclose(float(np.sum(gx * x)), lhs, rtol=1e-10)
    # adjoint in w: the map w -> conv(x, w) is linear in w too
    np.testing.assert_allclose(float(np.sum(gw * w)), lhs, rtol=1e-10)


def test_backward_matches_finite_difference_spot():
    x = _rand((1, 6, 6, 2), seed=11)
    w = _rand((3, 3, 2, 3), seed=12)
    g = _rand((1, 6, 6, 3), seed=13)
    gw = kernels.conv2d_bwd_weight(x, g, (3, 3), stride=1, pad=1)
    h = 1e-6
    for idx in [(0, 0, 0, 0), (1, 2, 1, 2), (2, 0, 1, 1)]:
        wp, wm = w.copy(), w.copy()
        wp[idx] += h
        wm[idx] -= h
        fp = np.sum(g * kernels.conv2d_forward(x, wp, 1, 1))
        fm = np.sum(g * kernels.conv2d_forward(x, wm, 1, 1))
        np.testing.assert_allclose(gw[idx], (fp - fm) / (2 * h), rtol=1e-4)


def test_bad_argument_reporting():
    x = np.zeros((1, 8, 8, 3))
    with pytest.raises(ValueError):
        kernels.conv2d_forward(x, np.zeros((3, 3, 2, 4)))  # channel mismatch
    with pytest.raises(ValueError):
        kernels.conv2d_forward(x, np.zeros((3, 3, 3, 4)), stride=0)
    with pytest.raises(ValueError):
        kernels.conv2d_forward(x, np.zeros((3, 3, 3, 4)), pad=-1)
    with pytest.raises(ValueError):
        kernels.conv2d_forward(x[0], np.zeros((3, 3, 3, 4)))  # rank


def test_upsample_and_adjoint():
    x = np.arange(8, dtype=np.float64).reshape(1, 2, 2, 2)
    up = kernels.upsample_nearest(x, 2)
    assert up.shape == (1, 4, 4, 2)
    assert np.array_equal(up[0, :2, :2, 0], np.full((2, 2), x[0, 0, 0, 0]))
    g = _rand(up.shape, seed=4)
    gx = kernels.upsample_nearest_bwd(g, 2)
    np.testing.assert_allclose(
        float(np.sum(g * up)), float(np.sum(gx * x)), rtol=1e-12
    )
    assert np.array_equal(kernels.upsample_nearest(x, 1), x)
    with pytest.raises(ValueError):
        kernels.upsample_nearest(x, 0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("factor", [1, 2, 4, 8])
@pytest.mark.parametrize("c", [2, 3, 4, 5, 8])
def test_upsample_bwd_is_bit_identical_to_the_reduce_form(dtype, factor, c):
    # c >= 2 only: at c = 1 numpy's reduction sums the contiguous phase axis
    # pairwise, and the program upsamples class maps of at least two classes
    for n in (1, 2, 3):
        g = _rand((n, 8 * factor, 4 * factor, c), seed=n).astype(dtype)
        out = kernels.upsample_nearest_bwd(g, factor)
        ref = upsample_bwd_by_reduce(g, factor)
        assert out.dtype == ref.dtype and out.shape == ref.shape
        assert out.tobytes() == ref.tobytes()



# ---------------------------------------------------------------------------
# every stock conv against the float64 oracles

# Named tolerances of the one kernel, relative to the largest magnitude of
# the float64 oracle (or of the tap loop, below). A float32 GEMM sums the
# products of one output cell, or of one window block for the weight
# gradient, in another order. The largest float32 differences seen on the
# stock shapes, at batch 1, 2, 6 and 8 over five seeds, are 1.4e-6 forward
# (disc.conv3), 8.1e-7 for the input gradient and 1.8e-6 for the weight
# gradient (seg.conv0). A float32 weight-gradient tap loop is itself up to
# 3.6e-6 off the oracle (gen.conv0), so the reference is a float64 oracle.
FLOAT32_RTOL = 2e-6
FLOAT64_RTOL = 1e-12

# (layer, input side, kernel, c_in, c_out, stride, pad) of every conv of the
# stock segmenter, generator and both discriminators; the output-map
# discriminator reads 4 class maps, the style discriminator RGB
STOCK_LAYERS = [
    ("seg.conv0", 64, 3, 3, 16, 2, 1),
    ("seg.conv1", 32, 3, 16, 32, 2, 1),
    ("seg.conv2", 16, 3, 32, 32, 1, 1),
    ("seg.head", 16, 1, 32, 4, 1, 0),
    ("gen.conv0", 64, 3, 3, 16, 1, 1),
    ("gen.conv1", 64, 3, 16, 16, 1, 1),
    ("gen.out", 64, 3, 16, 3, 1, 1),
    ("disc.conv0", 64, 4, 4, 8, 2, 1),
    ("styledisc.conv0", 64, 4, 3, 8, 2, 1),
    ("disc.conv1", 32, 4, 8, 16, 2, 1),
    ("disc.conv2", 16, 4, 16, 32, 2, 1),
    ("disc.conv3", 8, 4, 32, 64, 2, 1),
    ("disc.conv4", 4, 4, 64, 1, 2, 1),
]


def _all_three(x, w, g, stride, pad):
    return (
        kernels.conv2d_forward(x, w, stride, pad),
        kernels.conv2d_bwd_input(g, w, x.shape[1:3], stride, pad),
        kernels.conv2d_bwd_weight(x, g, w.shape[:2], stride, pad),
    )


def _operands(n, h, wd, kernel, c_in, c_out, stride, pad, dtype, seed=0):
    x = _rand((n, h, wd, c_in), seed, dtype)
    w = _rand((kernel, kernel, c_in, c_out), seed + 1, dtype)
    ho = kernels.conv_output_size(h, kernel, stride, pad)
    wo = kernels.conv_output_size(wd, kernel, stride, pad)
    g = _rand((n, ho, wo, c_out), seed + 2, dtype)
    return x, w, g


def _rel_err(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@functools.lru_cache(maxsize=1)
def _stock_case(layer, n):
    """Operands of one stock conv, float32 values, and their float64
    oracles; the float32 and float64 cases of a layer and batch share them."""
    _, side, kernel, c_in, c_out, stride, pad = layer
    x, w, g = _operands(n, side, side, kernel, c_in, c_out, stride, pad, np.float32,
                        seed=side + c_in)
    return (x, w, g), _oracles(x, w, g, stride, pad)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 2, 6, 8])
@pytest.mark.parametrize("layer", STOCK_LAYERS, ids=lambda layer: "-".join(map(str, layer)))
def test_every_stock_conv_matches_the_float64_oracle(layer, n, dtype):
    operands, want = _stock_case(layer, n)
    x, w, g = (a.astype(dtype) for a in operands)
    stride, pad = layer[-2:]
    got = _all_three(x, w, g, stride, pad)
    rtol = FLOAT32_RTOL if dtype == np.float32 else FLOAT64_RTOL
    for name, a, b in zip(("forward", "input grad", "weight grad"), got, want):
        assert a.dtype == dtype and a.shape == b.shape and a.flags.c_contiguous, name
        rel = _rel_err(a, b)
        assert rel <= rtol, f"{name}: {rel:.3g} of the oracle's largest magnitude"


@pytest.mark.parametrize(
    "n,h,wd,kernel,c_in,c_out,stride,pad",
    [
        (2, 10, 10, 4, 3, 5, 2, 1),   # the stock disc's k4 s2 p1
        (1, 8, 12, 4, 2, 3, 2, 0),    # non-square, no padding
        (2, 7, 10, 6, 2, 3, 3, 1),    # k6 s3: 3x3 phases, 2x2 phase kernel
        (1, 6, 6, 2, 3, 2, 2, 0),     # k2 s2: one phase tap
        (2, 9, 9, 3, 3, 4, 2, 1),     # 3x3 s2: kernel no multiple of the stride; padded 11x11
        (1, 8, 7, 1, 3, 2, 2, 0),     # 1x1 s2: the last input row is read by no output
        (1, 10, 11, 5, 2, 3, 3, 1),   # 5x5 s3: the last 1 row and 2 columns are read by none
        (2, 9, 9, 4, 3, 4, 2, 1),     # padded 11x11: the last row and column are read by none
        (2, 8, 9, 4, 2, 3, 2, 1),     # padded 10x11: odd width only
        (2, 8, 8, 1, 3, 4, 2, 1),     # a disc kernel of 1 with its fixed pad 1: pad >= kernel
        (1, 5, 6, 2, 2, 3, 3, 3),     # pad 3 > kernel 2 at stride 3
    ],
)
def test_space_to_depth_adjoint_and_finite_differences(n, h, wd, kernel, c_in, c_out, stride,
                                                       pad):
    # a stride-s input gradient runs on the kernel's space-to-depth phases
    x, w, g = _operands(n, h, wd, kernel, c_in, c_out, stride, pad, np.float64, seed=21)
    out, gx, gw = _all_three(x, w, g, stride, pad)
    np.testing.assert_allclose(out, _oracle_conv(x, w, stride, pad), rtol=1e-12, atol=1e-12)
    lhs = float(np.sum(g * out))
    np.testing.assert_allclose(float(np.sum(gx * x)), lhs, rtol=1e-12)
    np.testing.assert_allclose(float(np.sum(gw * w)), lhs, rtol=1e-12)

    def loss(x_, w_):
        return float(np.sum(g * kernels.conv2d_forward(x_, w_, stride, pad)))

    eps = 1e-6
    rng = np.random.default_rng(5)
    for arr, grad in ((x, gx), (w, gw)):
        for _ in range(4):
            idx = tuple(int(rng.integers(d)) for d in arr.shape)
            saved = arr[idx]
            arr[idx] = saved + eps
            up = loss(x, w)
            arr[idx] = saved - eps
            down = loss(x, w)
            arr[idx] = saved
            np.testing.assert_allclose(grad[idx], (up - down) / (2 * eps), rtol=1e-6, atol=1e-8)


def test_space_to_depth_regroups_phases():
    a = np.arange(2 * 4 * 6 * 3).reshape(2, 4, 6, 3)
    q = space_to_depth(a, 2)
    assert q.shape == (2, 2, 3, 2, 2, 3) and q.flags.c_contiguous
    for b, i, j, py, px in [(0, 0, 0, 0, 0), (1, 1, 2, 1, 0), (0, 1, 1, 0, 1), (1, 0, 2, 1, 1)]:
        assert np.array_equal(q[b, i, j, py, px], a[b, 2 * i + py, 2 * j + px])
    assert np.array_equal(q.swapaxes(2, 3).reshape(a.shape), a)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "kernel,c_in,c_out,stride",
    [
        (4, 32, 64, 2),   # the stock disc's conv3: s divides k, no extension
        (3, 16, 32, 2),   # the segmenter's 3x3 s2: extended to 4x4
        (3, 16, 3, 1),    # a stride-1 generator conv: the phases are the kernel
        (1, 3, 2, 2),     # 1x1 s2: one tap, extended to 2x2
        (5, 2, 3, 3),     # 5x5 s3: extended to 6x6, 2x2 phase taps
        (6, 2, 3, 3),     # 6x6 s3: s divides k
    ],
)
def test_phase_matrix_is_byte_equal_to_the_space_to_depth_build(kernel, c_in, c_out, stride,
                                                                 dtype):
    # one strided copy of the weight gives the kernel matrix that extending,
    # regrouping and flipping it step by step gives
    w = np.random.default_rng(3).standard_normal((kernel, kernel, c_in, c_out)).astype(dtype)
    got = kernels._phase_matrix(w, stride)
    want = phase_matrix_by_space_to_depth(w, stride)
    assert got.dtype == want.dtype and got.shape == want.shape and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# against the tap loops

# The phase-form input gradient sums 4·c_out products per phase tap where the
# tap loop sums c_out, so float32 results differ in the last bits; relative
# to the largest magnitude of the tap-loop result, the largest float32
# difference seen on the disc shapes below is 5.5e-7.
S2D_FLOAT32_RTOL = 1e-6
S2D_FLOAT64_RTOL = 1e-13

# (input size, c_in, c_out) of each layer of the stock discriminators:
# kernel 4, stride 2, pad 1, 64 -> 32 -> 16 -> 8 -> 4 -> 2
DISC_LAYERS = [(64, 4, 8), (64, 3, 8), (32, 8, 16), (16, 16, 32), (8, 32, 64), (4, 64, 1)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 2, 6])
@pytest.mark.parametrize("size,c_in,c_out", DISC_LAYERS)
def test_space_to_depth_matches_tap_loop_on_disc_layers(size, c_in, c_out, n, dtype):
    # the input gradient is the part of a disc conv that runs on the
    # space-to-depth phases; the forward and weight gradient are held to the
    # float64 oracle above
    _, w, g = _operands(n, size, size, 4, c_in, c_out, 2, 1, dtype)
    want = conv_bwd_input_taps(g, w, (size + 2, size + 2), 2)[:, 1:-1, 1:-1]
    got = kernels.conv2d_bwd_input(g, w, (size, size), 2, 1)
    assert got.dtype == dtype and got.shape == want.shape and got.flags.c_contiguous
    rtol = S2D_FLOAT32_RTOL if dtype == np.float32 else S2D_FLOAT64_RTOL
    assert _rel_err(got, want) <= rtol


# (c_in, c_out, stride) of the 3x3 pad-1 convs of the stock nets: the
# segmenter's body and the generator
SEG_CONVS = [(3, 16, 2), (16, 32, 2), (32, 32, 1)]
GEN_CONVS = [(3, 16, 1), (16, 16, 1), (16, 3, 1)]


def _stock_convs():
    """(net, batch, input side, c_in, c_out, stride) of every conv the stock
    segmenter runs at batch 2 (training), 5, 8 and 14 (inference slices at
    80, 64 and 48 pixels), and the stock generator at batch 2 and 8."""
    cases = []
    for n, side in ((2, 64), (5, 80), (8, 64), (14, 48)):
        for c_in, c_out, stride in SEG_CONVS:
            cases.append(("seg", n, side, c_in, c_out, stride))
            side //= stride
    for n in (2, 8):
        cases += [("gen", n, 64, c_in, c_out, stride) for c_in, c_out, stride in GEN_CONVS]
    return cases


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("net,n,side,c_in,c_out,stride", _stock_convs())
def test_gemm_matches_tap_loop_and_scipy_on_stock_convs(net, n, side, c_in, c_out, stride, dtype):
    x, w, g = _operands(n, side, side, 3, c_in, c_out, stride, 1, dtype, seed=side + c_in)
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    want = conv_forward_taps(xp, w, g.shape, stride)
    got = kernels.conv2d_forward(x, w, stride, 1)
    assert got.dtype == dtype and got.shape == want.shape and got.flags.c_contiguous
    rtol = FLOAT32_RTOL if dtype == np.float32 else FLOAT64_RTOL
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= rtol * scale
    oracle = _oracle_conv(x.astype(np.float64), w.astype(np.float64), stride, 1)
    assert np.max(np.abs(got - oracle)) <= rtol * scale


def test_gemm_blocks_stay_within_the_bound(monkeypatch):
    # every window copy, forward or backward, holds at most GEMM_BLOCK_BYTES;
    # the weight gradient passes it transposed
    sizes = []
    matmul = np.matmul

    def recorded(a, b, **kwargs):
        sizes.append((a.shape, a.nbytes))
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", recorded)
    cases = [(n, side, 3, c_in, c_out, stride, 1) for _, n, side, c_in, c_out, stride in _stock_convs()]
    cases += [(8, *layer[1:]) for layer in STOCK_LAYERS]
    for n, side, kernel, c_in, c_out, stride, pad in cases:
        x, w, g = _operands(n, side, side, kernel, c_in, c_out, stride, pad, np.float32)
        _all_three(x, w, g, stride, pad)
    assert len(sizes) > 3 * len(cases)
    assert max(nbytes for _, nbytes in sizes) <= kernels.GEMM_BLOCK_BYTES
    # a row wider than the bound is one block by itself
    sizes.clear()
    x, w, g = _operands(1, 3, 300, 3, 32, 32, 1, 1, np.float32)
    got = _all_three(x, w, g, 1, 1)
    assert [shape for shape, _ in sizes] == [(300, 288)] * 6 + [(288, 300)] * 3
    for a, b in zip(got, _oracles(x, w, g, 1, 1)):
        assert _rel_err(a, b) <= FLOAT32_RTOL


# (batch, input side) of every call of the stock segmenter's 1x1 head
# (32 -> 4): batch 2 in training, and the inference slices of 8, 5 and 14
# images at 64, 80 and 48 pixels
HEAD_CALLS = [(2, 16), (8, 16), (5, 20), (14, 12)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n,side", HEAD_CALLS)
def test_gemm_is_byte_equal_to_the_tap_loop_on_the_stock_head(n, side, dtype):
    # a 1x1 conv is one GEMM over the same rows either way, so the head's
    # outputs, and every artifact made from them, keep their bytes; the
    # input is a relu map with one all-zero pixel, as the body makes it
    x, w, _ = _operands(n, side, side, 1, 32, 4, 1, 0, dtype, seed=side)
    x = np.maximum(x, 0)
    x[0, 0, 0] = 0
    want = conv_forward_taps(x, w, (n, side, side, 4), 1)
    got = kernels.conv2d_forward(x, w, 1, 0)
    assert got.dtype == dtype and got.shape == want.shape and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()
