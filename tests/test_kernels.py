"""Convolution and resampling kernels against independent oracles.

Forward passes are checked against scipy.signal.correlate2d; backward
passes against the adjoint identity <g, conv(x)> == <conv^T(g), x>,
which holds exactly for linear maps.
"""

import numpy as np
import pytest
from scipy.signal import correlate2d

from segan import kernels


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

