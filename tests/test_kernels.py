"""Convolution and resampling kernels against independent oracles.

Forward passes are checked against scipy.signal.correlate2d; backward
passes against the adjoint identity <g, conv(x)> == <conv^T(g), x>,
which holds exactly for linear maps. The forward has two paths, chosen by
stride and shape: space-to-depth and one GEMM per row block. Both are held
to the forward tap loop of ``references.conv_forward_taps`` within named
tolerances, and the GEMM path to it byte for byte on the stock 1x1 head.
The backward kernels have two paths too, space-to-depth and the tap loop;
the first is held to the second. The upsampling gradient is held to its
one-reduction form, byte for byte.
"""

import numpy as np
import pytest
from scipy.signal import correlate2d

from segan import kernels

from references import conv_forward_taps, upsample_bwd_by_reduce


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
# space-to-depth path against the tap loop

# The space-to-depth GEMMs sum 4·c_in products per tap where the tap loop
# sums c_in, so float32 results differ in the last bits. Both tolerances are
# relative to the largest magnitude of the tap-loop result; the largest
# float32 difference seen on the disc shapes below is 3.5e-7.
S2D_FLOAT32_RTOL = 1e-6
S2D_FLOAT64_RTOL = 1e-13

# (input size, c_in, c_out) of each layer of the stock discriminators:
# kernel 4, stride 2, pad 1, 64 -> 32 -> 16 -> 8 -> 4 -> 2
DISC_LAYERS = [(64, 4, 8), (64, 3, 8), (32, 8, 16), (16, 16, 32), (8, 32, 64), (4, 64, 1)]

_TAP_LOOP = ("_conv2d_bwd_input_np", "_conv2d_bwd_weight_np")
_S2D = ("_conv2d_forward_s2d", "_conv2d_bwd_input_s2d", "_conv2d_bwd_weight_s2d")


def _forbid(monkeypatch, names):
    """Make the named kernel functions raise, to show which path a call takes."""
    def refuse(*args):
        raise AssertionError("the other kernel path ran")
    for name in names:
        monkeypatch.setattr(kernels, name, refuse)


def _all_three(x, w, g, stride, pad):
    return (
        kernels.conv2d_forward(x, w, stride, pad),
        kernels.conv2d_bwd_input(g, w, x.shape[1:3], stride, pad),
        kernels.conv2d_bwd_weight(x, g, w.shape[:2], stride, pad),
    )


def _tap_loop(x, w, g, stride, pad):
    xp = kernels._pad_input(x, pad)
    out = conv_forward_taps(xp, w, g.shape, stride)
    gxp = np.zeros(xp.shape, dtype=x.dtype)
    kernels._conv2d_bwd_input_np(g, w, gxp, stride)
    gx = gxp[:, pad : xp.shape[1] - pad, pad : xp.shape[2] - pad]
    gw = np.zeros(w.shape, dtype=x.dtype)
    kernels._conv2d_bwd_weight_np(xp, g, gw, stride)
    return out, gx, gw


def _operands(n, h, wd, kernel, c_in, c_out, stride, pad, dtype, seed=0):
    x = _rand((n, h, wd, c_in), seed, dtype)
    w = _rand((kernel, kernel, c_in, c_out), seed + 1, dtype)
    ho = kernels.conv_output_size(h, kernel, stride, pad)
    wo = kernels.conv_output_size(wd, kernel, stride, pad)
    g = _rand((n, ho, wo, c_out), seed + 2, dtype)
    return x, w, g


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 2, 6])
@pytest.mark.parametrize("size,c_in,c_out", DISC_LAYERS)
def test_space_to_depth_matches_tap_loop_on_disc_layers(monkeypatch, size, c_in, c_out, n, dtype):
    x, w, g = _operands(n, size, size, 4, c_in, c_out, 2, 1, dtype)
    want = _tap_loop(x, w, g, 2, 1)
    _forbid(monkeypatch, _TAP_LOOP)
    got = _all_three(x, w, g, 2, 1)
    rtol = S2D_FLOAT32_RTOL if dtype == np.float32 else S2D_FLOAT64_RTOL
    for name, a, b in zip(("forward", "input grad", "weight grad"), got, want):
        assert a.dtype == dtype and a.shape == b.shape and a.flags.c_contiguous, name
        rel = np.max(np.abs(a - b)) / np.max(np.abs(b))
        assert rel <= rtol, f"{name}: {rel:.3g} relative"


@pytest.mark.parametrize(
    "n,h,wd,kernel,c_in,c_out,stride,pad",
    [
        (2, 10, 10, 4, 3, 5, 2, 1),   # the stock disc's k4 s2 p1
        (1, 8, 12, 4, 2, 3, 2, 0),    # non-square, no padding
        (2, 7, 10, 6, 2, 3, 3, 1),    # k6 s3: 3x3 phases, 2x2 phase kernel
        (1, 6, 6, 2, 3, 2, 2, 0),     # k2 s2: one phase tap
    ],
)
def test_space_to_depth_adjoint_and_finite_differences(monkeypatch, n, h, wd, kernel, c_in,
                                                       c_out, stride, pad):
    _forbid(monkeypatch, _TAP_LOOP)
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


@pytest.mark.parametrize(
    "n,h,wd,kernel,c_in,c_out,stride,pad",
    [
        (2, 9, 9, 4, 3, 4, 2, 1),     # padded 11x11: odd
        (1, 10, 9, 4, 2, 3, 2, 1),    # padded 12x11: even height, odd width
        (1, 9, 10, 4, 2, 3, 2, 1),    # padded 11x12: odd height, even width
        (2, 8, 8, 4, 3, 4, 1, 1),     # stride 1
        (2, 10, 10, 3, 3, 4, 2, 1),   # kernel 3 is no multiple of stride 2
    ],
)
def test_other_convs_take_the_tap_loop(monkeypatch, n, h, wd, kernel, c_in, c_out, stride, pad):
    # backward through the tap loop itself; forward through the GEMM path
    x, w, g = _operands(n, h, wd, kernel, c_in, c_out, stride, pad, np.float32)
    want = _tap_loop(x, w, g, stride, pad)
    _forbid(monkeypatch, _S2D)
    out, gx, gw = _all_three(x, w, g, stride, pad)
    assert out.shape == want[0].shape
    assert np.max(np.abs(out - want[0])) <= GEMM_FLOAT32_RTOL * np.max(np.abs(want[0]))
    assert np.array_equal(gx, want[1])
    assert np.array_equal(gw, want[2])


def test_space_to_depth_regroups_phases():
    a = np.arange(2 * 4 * 6 * 3).reshape(2, 4, 6, 3)
    q = kernels.space_to_depth(a, 2)
    assert q.shape == (2, 2, 3, 2, 2, 3) and q.flags.c_contiguous
    for b, i, j, py, px in [(0, 0, 0, 0, 0), (1, 1, 2, 1, 0), (0, 1, 1, 0, 1), (1, 0, 2, 1, 1)]:
        assert np.array_equal(q[b, i, j, py, px], a[b, 2 * i + py, 2 * j + px])
    assert np.array_equal(q.swapaxes(2, 3).reshape(a.shape), a)


# ---------------------------------------------------------------------------
# GEMM forward path against the tap loop

# One GEMM sums kh·kw·c_in products per output where the tap loop adds kh·kw
# GEMMs of c_in products, so float32 outputs differ in the last bits. The
# tolerances are relative to the largest magnitude of the tap-loop result;
# the largest float32 difference seen on the stock shapes below, over five
# seeds, is 7.6e-7.
GEMM_FLOAT32_RTOL = 2e-6
GEMM_FLOAT64_RTOL = 1e-12

_GEMM = ("_conv2d_forward_gemm",)

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
def test_gemm_matches_tap_loop_and_scipy_on_stock_convs(monkeypatch, net, n, side, c_in, c_out,
                                                        stride, dtype):
    x, w, g = _operands(n, side, side, 3, c_in, c_out, stride, 1, dtype, seed=side + c_in)
    want = _tap_loop(x, w, g, stride, 1)[0]
    _forbid(monkeypatch, _TAP_LOOP + _S2D)
    got = kernels.conv2d_forward(x, w, stride, 1)
    assert got.dtype == dtype and got.shape == want.shape and got.flags.c_contiguous
    rtol = GEMM_FLOAT32_RTOL if dtype == np.float32 else GEMM_FLOAT64_RTOL
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= rtol * scale
    oracle = _oracle_conv(x.astype(np.float64), w.astype(np.float64), stride, 1)
    assert np.max(np.abs(got - oracle)) <= rtol * scale


def test_gemm_blocks_stay_within_the_bound(monkeypatch):
    sizes = []
    matmul = np.matmul

    def recorded(a, b, **kwargs):
        sizes.append((a.shape, a.nbytes))
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", recorded)
    for _, n, side, c_in, c_out, stride in _stock_convs():
        x, w, _ = _operands(n, side, side, 3, c_in, c_out, stride, 1, np.float32)
        kernels.conv2d_forward(x, w, stride, 1)
    assert len(sizes) > len(_stock_convs())
    assert max(nbytes for _, nbytes in sizes) <= kernels.GEMM_BLOCK_BYTES
    # a row wider than the bound is one block by itself
    sizes.clear()
    x, w, _ = _operands(1, 3, 300, 3, 32, 32, 1, 1, np.float32)
    out = kernels.conv2d_forward(x, w, 1, 1)
    assert [shape for shape, _ in sizes] == [(300, 288)] * 3
    np.testing.assert_allclose(out, _oracle_conv(x, w, 1, 1), rtol=0,
                               atol=GEMM_FLOAT32_RTOL * np.max(np.abs(out)))


@pytest.mark.parametrize(
    "n,h,wd,kernel,c_in,c_out,stride,pad,path",
    [
        (2, 64, 64, 3, 3, 16, 2, 1, _GEMM),      # seg.conv0
        (8, 16, 16, 3, 32, 32, 1, 1, _GEMM),     # seg.conv2
        (2, 64, 64, 3, 16, 3, 1, 1, _GEMM),      # gen.out: 16 channels in
        (2, 9, 9, 4, 16, 4, 2, 1, _GEMM),        # padded 11x11: no space-to-depth
        (2, 16, 16, 1, 32, 4, 1, 0, _GEMM),      # seg.head: 1x1
        (2, 16, 16, 3, 8, 15, 1, 1, _GEMM),      # fewer than 16 channels either side
        (2, 16, 16, 4, 16, 32, 2, 1, _S2D),      # disc.conv2: space-to-depth first
    ],
)
def test_forward_path_is_chosen_by_shape(monkeypatch, n, h, wd, kernel, c_in, c_out, stride,
                                         pad, path):
    x, w, _ = _operands(n, h, wd, kernel, c_in, c_out, stride, pad, np.float32)
    _forbid(monkeypatch, _S2D if path == _GEMM else _GEMM)
    kernels.conv2d_forward(x, w, stride, pad)


# (batch, input side) of every call of the stock segmenter's 1x1 head
# (32 -> 4): batch 2 in training, and the inference slices of 8, 5 and 14
# images at 64, 80 and 48 pixels
HEAD_CALLS = [(2, 16), (8, 16), (5, 20), (14, 12)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n,side", HEAD_CALLS)
def test_gemm_is_byte_equal_to_the_tap_loop_on_the_stock_head(monkeypatch, n, side, dtype):
    # a 1x1 conv is one GEMM over the same rows either way, so the head's
    # outputs, and every artifact made from them, keep their bytes; the
    # input is a relu map with one all-zero pixel, as the body makes it
    x, w, _ = _operands(n, side, side, 1, 32, 4, 1, 0, dtype, seed=side)
    x = np.maximum(x, 0)
    x[0, 0, 0] = 0
    want = conv_forward_taps(x, w, (n, side, side, 4), 1)
    _forbid(monkeypatch, _S2D)
    got = kernels.conv2d_forward(x, w, 1, 0)
    assert got.dtype == dtype and got.shape == want.shape and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()
