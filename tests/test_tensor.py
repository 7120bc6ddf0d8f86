"""Reverse-mode graph engine: forward oracles, gradient identities,
finite-difference agreement, pruning, and error reporting.

Every gradient assertion is backed either by a closed form worked out
by hand or by finite_diff_grad (``references.py``), which only runs
forward passes and is therefore an independent check on backward().
"""

import tracemalloc

import numpy as np
import pytest

from segan.tensor import Graph, GraphError, ShapeError, backward, forward

from references import finite_diff_grad


def _scalar_graph(build):
    """Build a one-input scalar graph; returns (graph, x_id, loss_id)."""
    g = Graph()
    x = g.input("x", ())
    return g, x, build(g, x)


# ---------------------------------------------------------------------------
# forward


def test_softmax_of_zeros_is_uniform():
    g = Graph()
    x = g.input("x", (3,))
    s = g.softmax(x)
    acts = forward(g, {x: np.zeros(3)})
    np.testing.assert_allclose(acts[s], np.full(3, 1.0 / 3.0), atol=1e-15)


def test_softmax_rows_normalized_and_shift_invariant():
    rng = np.random.default_rng(0)
    x_val = rng.standard_normal((4, 5, 6)) * 30.0
    g = Graph()
    x = g.input("x", x_val.shape)
    s = g.softmax(x)
    probs = forward(g, {x: x_val})[s]
    assert probs.min() >= 0.0
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-9)
    shifted = forward(g, {x: x_val + 100.0})[s]
    np.testing.assert_allclose(shifted, probs, atol=1e-12)


def test_forward_op_table_against_numpy():
    rng = np.random.default_rng(1)
    x_val = rng.standard_normal((2, 3))
    y_val = rng.standard_normal((2, 3))
    g = Graph()
    x = g.input("x", (2, 3))
    y = g.input("y", (2, 3))
    nodes = {
        "add": (g.add(x, y), x_val + y_val),
        "scalar_mul": (g.scalar_mul(x, 2.5), 2.5 * x_val),
        "scalar_add": (g.scalar_add(x, -1.0), x_val - 1.0),
        "relu": (g.relu(x), np.maximum(x_val, 0.0)),
        "leaky": (g.leaky_relu(x, slope=0.2), np.where(x_val > 0, x_val, 0.2 * x_val)),
        "sigmoid": (g.sigmoid(x), 1.0 / (1.0 + np.exp(-x_val))),
        "square": (g.square(x), x_val**2),
        "clip": (g.clip(x, -0.5, 0.5), np.clip(x_val, -0.5, 0.5)),
        "mean": (g.reduce_mean(x), np.mean(x_val)),
        "sum0": (g.reduce_sum(x, axis=0), x_val.sum(axis=0)),
    }
    acts = forward(g, {x: x_val, y: y_val})
    for label, (node, want) in nodes.items():
        np.testing.assert_allclose(acts[node], want, atol=1e-12, err_msg=label)


def test_log_of_positive_and_gather():
    g = Graph()
    x = g.input("x", (2, 3))
    oh = g.input("oh", (2, 3))
    picked = g.onehot_gather(x, oh)
    x_val = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    oh_val = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    acts = forward(g, {x: x_val, oh: oh_val})
    assert acts[picked].shape == (2,)
    np.testing.assert_allclose(acts[picked], [2.0, 4.0])


def test_forward_is_deterministic():
    rng = np.random.default_rng(5)
    g = Graph()
    x = g.input("x", (2, 8, 8, 3))
    w = g.input("w", (3, 3, 3, 4))
    out = g.reduce_mean(g.relu(g.conv2d(x, w, stride=2, pad=1)))
    feeds = {x: rng.standard_normal((2, 8, 8, 3)), w: rng.standard_normal((3, 3, 3, 4))}
    a = forward(g, feeds)[out]
    b = forward(g, feeds)[out]
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# backward: closed forms


def test_square_gradient_at_three_is_six():
    g, x, loss = _scalar_graph(lambda g, x: g.square(x))
    acts = forward(g, {x: np.asarray(3.0)})
    grads = backward(g, loss, acts, wrt=[x])
    np.testing.assert_allclose(grads[x], 6.0, rtol=1e-12)


def test_softmax_ce_gradient_is_probs_minus_onehot():
    rng = np.random.default_rng(2)
    logits_val = rng.standard_normal((4, 5))
    labels = rng.integers(0, 5, size=4)
    oh_val = np.eye(5)[labels]

    g = Graph()
    logits = g.input("logits", (4, 5))
    oh = g.input("oh", (4, 5))
    probs = g.softmax(logits)
    ce = g.scalar_mul(g.reduce_mean(g.onehot_gather(g.log(probs), oh)), -1.0)
    feeds = {logits: logits_val, oh: oh_val}
    acts = forward(g, feeds)
    grads = backward(g, ce, acts, wrt=[logits])

    p = np.exp(logits_val - logits_val.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    want = (p - oh_val) / 4.0  # mean over the 4 rows
    np.testing.assert_allclose(grads[logits], want, rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------
# backward vs finite differences


def test_three_layer_conv_net_matches_finite_difference():
    rng = np.random.default_rng(3)
    g = Graph()
    x = g.input("x", (1, 8, 8, 2))
    w1 = g.input("w1", (3, 3, 2, 4))
    b1 = g.input("b1", (4,))
    w2 = g.input("w2", (3, 3, 4, 4))
    w3 = g.input("w3", (1, 1, 4, 3))
    h1 = g.leaky_relu(g.conv2d(x, w1, bias=b1, stride=2, pad=1))
    h2 = g.relu(g.conv2d(h1, w2, stride=1, pad=1))
    h3 = g.upsample_nearest(g.conv2d(h2, w3), 2)
    loss = g.reduce_mean(g.square(g.sigmoid(h3)))
    feeds = {
        x: rng.standard_normal((1, 8, 8, 2)),
        w1: rng.standard_normal((3, 3, 2, 4)) * 0.5,
        b1: rng.standard_normal(4) * 0.1,
        w2: rng.standard_normal((3, 3, 4, 4)) * 0.5,
        w3: rng.standard_normal((1, 1, 4, 3)) * 0.5,
    }
    acts = forward(g, feeds)
    grads = backward(g, loss, acts, wrt=[w1, b1, w2, w3])
    for wid in (w1, b1, w2, w3):
        fd = finite_diff_grad(g, loss, wid, feeds, h=1e-3)
        denom = max(np.abs(fd).max(), 1e-8)
        assert np.abs(grads[wid] - fd).max() / denom < 1e-4


@pytest.mark.parametrize(
    "build",
    [
        lambda g, x: g.reduce_sum(g.sigmoid(x)),
        lambda g, x: g.reduce_mean(g.square(x), axis=None),
        lambda g, x: g.reduce_sum(g.log(g.scalar_add(g.square(x), 1.0))),
        lambda g, x: g.reduce_sum(g.square(g.softmax(x)), axis=None),
        lambda g, x: g.reduce_mean(g.clip(x, -0.4, 0.4)),
    ],
)
def test_pointwise_chains_match_finite_difference(build):
    rng = np.random.default_rng(4)
    g = Graph()
    x = g.input("x", (3, 4))
    loss = build(g, x)
    feeds = {x: rng.standard_normal((3, 4))}
    acts = forward(g, feeds)
    grads = backward(g, loss, acts, wrt=[x])
    fd = finite_diff_grad(g, loss, x, feeds, h=1e-5)
    np.testing.assert_allclose(grads[x], fd, rtol=1e-5, atol=1e-7)


def test_finite_diff_cubic_at_two_is_twelve():
    g = Graph()
    x = g.input("x", (1,))
    loss = g.onehot_gather(g.square(x), x)  # x^3, the one entry of x^2 weighted by x
    fd = finite_diff_grad(g, loss, x, {x: np.asarray([2.0])}, h=1e-4)
    np.testing.assert_allclose(fd, 12.0, atol=1e-6)


def test_relu_kink_disagrees_with_central_difference():
    # at exactly 0, backward picks the positive-side subgradient (1) while
    # the symmetric difference quotient reports 0.5; the checker must see it
    g, x, loss = _scalar_graph(lambda g, x: g.relu(x))
    feeds = {x: np.asarray(0.0)}
    acts = forward(g, feeds)
    grads = backward(g, loss, acts, wrt=[x])
    fd = finite_diff_grad(g, loss, x, feeds, h=1e-4)
    np.testing.assert_allclose(grads[x], 1.0)
    np.testing.assert_allclose(fd, 0.5, atol=1e-12)
    assert abs(float(grads[x]) - float(fd)) > 0.4


# ---------------------------------------------------------------------------
# pruning


def test_unreachable_leaf_gets_zero_gradient():
    g = Graph()
    x = g.input("x", (2,))
    y = g.input("y", (2,))
    loss = g.reduce_sum(g.square(x))
    feeds = {
        x: np.array([1.0, 2.0]),
        y: np.array([5.0, 5.0]),
    }
    acts = forward(g, feeds)
    grads = backward(g, loss, acts, wrt=[x, y])
    np.testing.assert_allclose(grads[x], [2.0, 4.0])
    assert np.array_equal(grads[y], np.zeros(2))


def test_backward_releases_each_gradient_once_its_vjp_runs():
    # along a chain of 40 relus only the frontier's gradients are alive
    g = Graph()
    x = node = g.input("x", (128, 1024))  # 1 MiB of float64
    for _ in range(40):
        node = g.relu(node)
    loss = g.reduce_sum(node)
    acts = forward(g, {x: np.ones((128, 1024))})
    tracemalloc.start()
    try:
        grads = backward(g, loss, acts, wrt=[x])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(grads[x], np.ones((128, 1024)))
    assert peak < 6 * 2**20


def test_forward_with_a_read_node_holds_only_live_activations():
    # a chain of 80 ops over 1 MiB of float64 each, with a side branch that
    # the last node reads: the full pass holds all 83 activations at its end
    g = Graph()
    x = node = g.input("x", (128, 1024))
    branch = g.scalar_mul(x, 0.5)
    for _ in range(40):
        node = g.relu(g.scalar_add(node, -0.01))
    out = g.add(node, branch)
    feeds = {x: np.random.default_rng(0).standard_normal((128, 1024))}
    full = forward(g, feeds)
    tracemalloc.start()
    try:
        acts = forward(g, feeds, out)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert acts[out].tobytes() == full[out].tobytes()
    assert [i for i, a in enumerate(acts) if a is not None] == [out]
    assert peak < 6 * 2**20, peak / 2**20


def test_forward_with_a_read_node_matches_the_full_pass_on_a_conv_net():
    g = Graph()
    x = g.input("x", (2, 8, 8, 3))
    w0, b0 = g.input("w0", (3, 3, 3, 16)), g.input("b0", (16,))
    w1, b1 = g.input("w1", (4, 4, 16, 4)), g.input("b1", (4,))
    h = g.leaky_relu(g.conv2d(x, w0, b0, pad=1))
    out = g.softmax(g.upsample_nearest(g.conv2d(h, w1, b1, stride=2, pad=1), 2))
    rng = np.random.default_rng(1)
    feeds = {i: rng.standard_normal(g.shape(i)).astype(np.float32) for i in (x, w0, b0, w1, b1)}
    acts = forward(g, feeds, h)
    assert acts[h].tobytes() == forward(g, feeds)[h].tobytes()
    assert [i for i, a in enumerate(acts) if a is not None] == [h]
    acts = forward(g, feeds, out)
    assert acts[out].tobytes() == forward(g, feeds)[out].tobytes()
    assert [i for i, a in enumerate(acts) if a is not None] == [out]


def test_constant_wrt_loss_gives_zero_everywhere():
    g = Graph()
    x = g.input("x", (3,))
    loss = g.reduce_mean(g.scalar_mul(x, 0.0))
    feeds = {x: np.array([1.0, -2.0, 3.0])}
    acts = forward(g, feeds)
    grads = backward(g, loss, acts, wrt=[x])
    assert np.array_equal(grads[x], np.zeros(3))
    fd = finite_diff_grad(g, loss, x, feeds)
    np.testing.assert_allclose(fd, np.zeros(3), atol=1e-12)


# ---------------------------------------------------------------------------
# error reporting


def test_missing_and_extra_feeds_rejected():
    g = Graph()
    x = g.input("x", (2,))
    y = g.input("y", (2,))
    s = g.add(x, y)
    with pytest.raises(GraphError, match="missing feeds"):
        forward(g, {x: np.zeros(2)})
    with pytest.raises(GraphError, match="non-input"):
        forward(g, {x: np.zeros(2), y: np.zeros(2), s: np.zeros(2)})


def test_feed_shape_and_dtype_and_finite_checks():
    g = Graph()
    x = g.input("x", (2, 2))
    g.square(x)
    with pytest.raises(ShapeError):
        forward(g, {x: np.zeros((3, 2))})
    with pytest.raises(GraphError, match="float"):
        forward(g, {x: np.zeros((2, 2), dtype=np.int64)})
    bad = np.zeros((2, 2))
    bad[0, 0] = np.nan
    with pytest.raises(GraphError, match="non-finite"):
        forward(g, {x: bad})


def test_builder_shape_errors_name_the_node():
    g = Graph()
    a = g.input("a", (2, 3))
    b = g.input("b", (2, 4))
    with pytest.raises(ShapeError):
        g.add(a, b)
    with pytest.raises(ShapeError):
        g.onehot_gather(a, b)
    with pytest.raises(ValueError):
        g.clip(a, 1.0, -1.0)


def test_backward_requires_scalar_loss_and_input_leaves():
    g = Graph()
    x = g.input("x", (2,))
    sq = g.square(x)
    loss = g.reduce_sum(sq)
    acts = forward(g, {x: np.ones(2)})
    with pytest.raises(GraphError, match="scalar"):
        backward(g, sq, acts, wrt=[x])
    with pytest.raises(GraphError, match="input leaves"):
        backward(g, loss, acts, wrt=[sq])


def test_feed_time_validation():
    # non-numeric data is rejected when fed
    g = Graph()
    x = g.input("x", ())
    g.square(x)
    with pytest.raises(GraphError, match="float"):
        forward(g, {x: np.asarray("not an array")})
